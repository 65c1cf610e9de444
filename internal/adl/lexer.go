package adl

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind classifies lexer tokens.
type tokKind int

const (
	tokIdent tokKind = iota + 1
	tokString
	tokPunct // one of { } ( ) , = . and the two-rune ->
	tokEOF
)

type token struct {
	kind tokKind
	val  string
	line int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("%q", t.val)
	default:
		return t.val
	}
}

// lexer tokenizes ADL source. '#' starts a line comment. Strings use
// double quotes without escapes (rule text never needs them).
type lexer struct {
	src  []rune
	pos  int
	line int
}

func newLexer(src string) *lexer {
	return &lexer{src: []rune(src), line: 1}
}

func (l *lexer) next() (token, error) {
	// Skip whitespace and comments.
	for l.pos < len(l.src) {
		r := l.src[l.pos]
		if r == '\n' {
			l.line++
			l.pos++
			continue
		}
		if unicode.IsSpace(r) {
			l.pos++
			continue
		}
		if r == '#' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		break
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, line: l.line}, nil
	}

	r := l.src[l.pos]
	switch r {
	case '{', '}', '(', ')', ',', '=', '.':
		l.pos++
		return token{kind: tokPunct, val: string(r), line: l.line}, nil
	case '-':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '>' {
			l.pos += 2
			return token{kind: tokPunct, val: "->", line: l.line}, nil
		}
		return token{}, fmt.Errorf("adl: line %d: unexpected '-'", l.line)
	case '"':
		start := l.pos + 1
		end := start
		for end < len(l.src) && l.src[end] != '"' && l.src[end] != '\n' {
			end++
		}
		if end >= len(l.src) || l.src[end] != '"' {
			return token{}, fmt.Errorf("adl: line %d: unterminated string", l.line)
		}
		l.pos = end + 1
		return token{kind: tokString, val: string(l.src[start:end]), line: l.line}, nil
	}

	if isIdentRune(r) {
		start := l.pos
		for l.pos < len(l.src) && isIdentRune(l.src[l.pos]) {
			l.pos++
		}
		return token{kind: tokIdent, val: string(l.src[start:l.pos]), line: l.line}, nil
	}
	return token{}, fmt.Errorf("adl: line %d: unexpected character %q", l.line, string(r))
}

// isIdentRune accepts letters, digits and the separators used inside
// identifiers and op/metric names. Versions ("1.2") are lexed as three
// tokens (1 . 2) and reassembled by the parser. '-' is reserved for "->".
func isIdentRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '/' || r == ':'
}

// captureBalancedBlock returns the raw text between the current '{' (which
// must already be consumed) and its matching '}'. Used for behavior blocks,
// whose contents use the lts notation rather than ADL tokens.
func (l *lexer) captureBalancedBlock() (string, error) {
	depth := 1
	start := l.pos
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				text := string(l.src[start:l.pos])
				l.pos++ // consume '}'
				l.line += strings.Count(text, "\n")
				return text, nil
			}
		case '\n':
			// counted at return
		}
		l.pos++
	}
	return "", fmt.Errorf("adl: line %d: unterminated block", l.line)
}
