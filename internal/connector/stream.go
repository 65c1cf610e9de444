package connector

import "sync"

// Server-streaming payload conventions. A stream is one Request-kind
// message (StreamOpenPayload) answered by any number of Reply-kind messages
// carrying *StreamItem envelopes and exactly one Reply-kind message
// carrying a StreamEndPayload, all correlated by the open's Corr. Chunks
// and ends ride the same mailboxes and FIFO lanes as ordinary replies, so
// they pass pauseRequests barriers and are never starved behind deadlined
// requests.

// StreamOpenPayload is the request payload of a stream open: the serve path
// and the cluster gateway dispatch on this dynamic type. Window is the
// consumer's initial credit window in items — the producer may have at most
// Window un-consumed items in flight before blocking.
type StreamOpenPayload struct {
	Principal string
	Args      []any
	Window    int
}

// StreamItem is one pushed stream item in flight between a producer and the
// consumer's client edge. Envelopes are pooled: the producer leases one per
// item with NewStreamItem and the consuming edge returns it with Release
// after moving Item out, so the steady-state receive path allocates nothing
// beyond the item itself. The payload is a pointer precisely so boxing it
// into bus.Message.Payload costs no allocation.
type StreamItem struct {
	// Seq is the 1-based position of the item in its stream, for
	// conservation accounting (delivered + shed == sent).
	Seq  uint64
	Item any
}

var streamItemPool = sync.Pool{New: func() any { return new(StreamItem) }}

// NewStreamItem leases a pooled envelope.
func NewStreamItem(seq uint64, item any) *StreamItem {
	si := streamItemPool.Get().(*StreamItem)
	si.Seq, si.Item = seq, item
	return si
}

// Release zeroes the envelope and returns it to the pool. Callers must not
// touch the envelope afterwards.
func (si *StreamItem) Release() {
	si.Seq, si.Item = 0, nil
	streamItemPool.Put(si)
}

// StreamEndPayload terminates a stream: clean end when Err is empty,
// failure otherwise. Kind classifies Err like ReplyPayload.Kind does.
type StreamEndPayload struct {
	Err  string
	Kind ErrKind
}
