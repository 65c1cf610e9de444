// Tests for the negotiate-or-refuse rule of the link handshake (DESIGN.md §6,
// "Wire protocol"), driven by hand-written peers over raw TCP: no node option
// selects a wire version, so the other end of the link is played by the test.
package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// oneNode starts a single-node cluster hosting Front and Store, collecting
// every error its Logf is handed.
func oneNode(t *testing.T) (*Harness, func() []error) {
	t.Helper()
	return archNode(t, clusterADL, "n1")
}

// archNode is oneNode for node id running architecture adl.
func archNode(t *testing.T, adl, id string) (*Harness, func() []error) {
	t.Helper()
	var (
		mu     sync.Mutex
		logged []error
	)
	h, err := StartHarness(context.Background(), Spec{
		ADL:      adl,
		Nodes:    []string{id},
		Registry: testRegistry,
		Cluster: func(node string) Options {
			o := fastCluster(node)
			o.Logf = func(_ string, args ...any) {
				mu.Lock()
				defer mu.Unlock()
				for _, a := range args {
					if err, ok := a.(error); ok {
						logged = append(logged, err)
					}
				}
			}
			return o
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return h, func() []error {
		mu.Lock()
		defer mu.Unlock()
		return append([]error(nil), logged...)
	}
}

// rawFrame assembles one frame byte by byte, as the package doc of
// internal/wire lays it out.
func rawFrame(version uint8, t wire.FrameType, body []byte) []byte {
	f := []byte{0xA5, 0x57, version, byte(t)}
	f = binary.BigEndian.AppendUint32(f, uint32(len(body)))
	return append(f, body...)
}

// bodyFrame assembles one frame of type ft around the encoding of b.
func bodyFrame(t *testing.T, ft wire.FrameType, b wire.Body) []byte {
	t.Helper()
	body, err := wire.Append(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	return rawFrame(wire.MaxVersion, ft, body)
}

// helloBody encodes a hello for peer "ghost" of the test architecture; a
// negative offer ends the body before the MaxVersion field.
func helloBody(offer int) []byte {
	b := wire.AppendString(nil, "ghost")
	b = wire.AppendString(b, "Cluster")
	b = append(b, 0) // hosts no components
	if offer >= 0 {
		b = binary.AppendUvarint(b, uint64(offer))
		b = wire.AppendString(b, "") // advertises no address
	}
	return b
}

// ghostVisible reports whether the node shows any sign of peer "ghost".
func ghostVisible(n *Node) bool {
	if len(n.Peers()) != 0 || len(n.Telemetry().Links) != 0 {
		return true
	}
	for _, m := range n.Members() {
		if m.ID == "ghost" {
			return true
		}
	}
	return false
}

// settleGoroutines waits for the goroutine count to come back to base.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines outlive Close (started with %d):\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHandshakeNewerPeerNegotiatesDown: a peer from a future build offers
// MaxVersion+1. Both ends take the smaller offer, the link runs at this
// build's MaxVersion, and a call crosses it.
func TestHandshakeNewerPeerNegotiatesDown(t *testing.T) {
	h, _ := oneNode(t)
	defer h.Close()
	n := h.Node("n1")

	conn, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(rawFrame(wire.MinVersion, wire.FrameHello, helloBody(wire.MaxVersion+1))); err != nil {
		t.Fatal(err)
	}
	dec := wire.NewDecoder(conn)
	ft, body, err := dec.Next()
	if err != nil || ft != wire.FrameWelcome {
		t.Fatalf("welcome: %v %v", ft, err)
	}
	var welcome wire.Hello
	if err := wire.Parse(body, &welcome); err != nil || welcome.Node != "n1" || welcome.MaxVersion != wire.MaxVersion {
		t.Fatalf("welcome: %+v %v", welcome, err)
	}

	// The node's side of the negotiation: one link, at its own MaxVersion.
	deadline := time.Now().Add(5 * time.Second)
	for len(n.Telemetry().Links) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("node never linked the newer peer")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if links := n.Telemetry().Links; links[0].Peer != "ghost" || links[0].WireVersion != wire.MaxVersion {
		t.Fatalf("links = %+v, want ghost at v%d", links, wire.MaxVersion)
	}
	if m, ok := n.Member("ghost"); !ok || m.Status != MemberAlive {
		t.Fatalf("newer peer missing from the membership view: %+v", m)
	}

	// A call in the negotiated version is served; gossip beacons interleave.
	call, err := wire.AppendCall(nil, wire.Call{Corr: 77, Component: "Store", Op: "get", Args: []any{"k1"}}, wire.MaxVersion)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(rawFrame(wire.MaxVersion, wire.FrameCall, call)); err != nil {
		t.Fatal(err)
	}
	for {
		ft, body, err := dec.Next()
		if err != nil {
			t.Fatalf("waiting for the reply: %v", err)
		}
		if ft != wire.FrameReply {
			continue
		}
		rep, err := wire.ParseReply(body, wire.MaxVersion)
		if err != nil || rep.Corr != 77 || rep.Err != "" || len(rep.Results) != 1 || rep.Results[0] != "k1" {
			t.Fatalf("reply: %+v %v", rep, err)
		}
		break
	}
}

// TestHandshakeOlderPeerRefused: a peer whose best offer is below MinVersion
// — or whose hello carries no offer at all — shares no version with this
// build. Both roles refuse with ErrWireVersion: the acceptor (the old peer
// dials the node) and the dialer (the node joins the old peer). The node
// never shows the peer as linked or as a member, and nothing it started for
// the attempt outlives Close.
func TestHandshakeOlderPeerRefused(t *testing.T) {
	for name, offer := range map[string]int{"below MinVersion": wire.MinVersion - 1, "no offer": -1} {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			h, logged := oneNode(t)
			n := h.Node("n1")
			refusals := func() (count int) {
				for _, err := range logged() {
					if errors.Is(err, ErrWireVersion) {
						count++
					}
				}
				return count
			}

			// Acceptor: the old peer dials in. The node answers with its
			// welcome — that is how the peer learns the node's offer and
			// reaches the same verdict — then drops the connection.
			conn, err := net.Dial("tcp", n.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := conn.Write(rawFrame(wire.MinVersion, wire.FrameHello, helloBody(offer))); err != nil {
				t.Fatal(err)
			}
			dec := wire.NewDecoder(conn)
			if ft, _, err := dec.Next(); err != nil || ft != wire.FrameWelcome {
				t.Fatalf("welcome: %v %v", ft, err)
			}
			if ft, _, err := dec.Next(); err == nil {
				t.Fatalf("refused link still carries frames: %v", ft)
			}
			deadline := time.Now().Add(5 * time.Second)
			for refusals() == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("acceptor logged no ErrWireVersion: %v", logged())
				}
				time.Sleep(5 * time.Millisecond)
			}
			if ghostVisible(n) {
				t.Fatalf("acceptor shows the refused peer: peers=%v members=%+v", n.Peers(), n.Members())
			}

			// Dialer: the node joins the old peer, which answers the hello
			// with its own low offer.
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			served := make(chan error, 1)
			go func() {
				c, err := ln.Accept()
				if err != nil {
					served <- err
					return
				}
				defer c.Close()
				_ = c.SetDeadline(time.Now().Add(10 * time.Second))
				if ft, _, err := wire.NewDecoder(c).Next(); err != nil || ft != wire.FrameHello {
					served <- errors.New("old peer got no hello")
					return
				}
				_, err = c.Write(rawFrame(wire.MinVersion, wire.FrameWelcome, helloBody(offer)))
				served <- err
			}()
			if err := n.Join(ln.Addr().String()); !errors.Is(err, ErrWireVersion) {
				t.Fatalf("Join(old peer) = %v, want ErrWireVersion", err)
			}
			if err := <-served; err != nil {
				t.Fatal(err)
			}
			if ghostVisible(n) {
				t.Fatalf("dialer shows the refused peer: peers=%v members=%+v", n.Peers(), n.Members())
			}

			conn.Close()
			h.Close()
			settleGoroutines(t, base)
		})
	}
}

// TestHandshakeOtherArchitectureRefused: nodes running different
// architectures refuse each other on both ends with ErrSystemName — the
// acceptor answers the hello with its welcome, as it does an unacceptable
// version offer, so the dialer learns why — and neither lists the other.
func TestHandshakeOtherArchitectureRefused(t *testing.T) {
	base := runtime.NumGoroutine()
	h1, logged := oneNode(t)
	h2, _ := archNode(t, strings.Replace(clusterADL, "system Cluster", "system Other", 1), "m1")
	n1, m1 := h1.Node("n1"), h2.Node("m1")

	if err := m1.Join(n1.Addr()); !errors.Is(err, ErrSystemName) {
		t.Fatalf("Join(other architecture) = %v, want ErrSystemName", err)
	}
	refused := func() bool {
		for _, err := range logged() {
			if errors.Is(err, ErrSystemName) {
				return true
			}
		}
		return false
	}
	for deadline := time.Now().Add(5 * time.Second); !refused(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("acceptor logged no ErrSystemName: %v", logged())
		}
	}
	for _, pair := range [][2]*Node{{n1, m1}, {m1, n1}} {
		n, other := pair[0], pair[1]
		if _, member := n.Member(other.id); member || len(n.Peers()) != 0 || len(n.Telemetry().Links) != 0 {
			t.Fatalf("%s shows the refused %s: peers=%v members=%+v", n.id, other.id, n.Peers(), n.Members())
		}
	}

	h1.Close()
	h2.Close()
	settleGoroutines(t, base)
}
