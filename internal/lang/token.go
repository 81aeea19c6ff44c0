package lang

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind enumerates lexical token categories.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokPunct    // ( ) { } [ ] ; , . =>
	tokOperator // + - * / % == != < > <= >= && || ! =
	tokKeyword
)

var keywords = map[string]bool{
	"contract": true, "interface": true, "function": true, "constructor": true,
	"modifier": true, "event": true, "emit": true, "returns": true, "return": true,
	"if": true, "else": true, "while": true, "require": true, "revert": true,
	"uint": true, "uint8": true, "uint256": true, "address": true, "bool": true,
	"bytes32": true, "bytes": true, "mapping": true, "memory": true,
	"public": true, "internal": true, "external": true, "payable": true, "view": true,
	"true": true, "false": true, "msg": true, "block": true, "this": true,
}

// token is one lexical unit.
type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// lexer converts source text into tokens, one at a time.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
	err  error // first lexical error; the stream ends there
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

// Error is a source-located compilation error.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("solo:%d:%d: %s", e.Line, e.Col, e.Msg)
}

func errAt(line, col int, format string, args ...interface{}) error {
	return &Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

func (lx *lexer) peekByte() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *lexer) peekByteAt(off int) byte {
	if lx.pos+off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+off]
}

func (lx *lexer) advance() byte {
	b := lx.src[lx.pos]
	lx.pos++
	if b == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return b
}

func (lx *lexer) skipSpaceAndComments() error {
	for lx.pos < len(lx.src) {
		b := lx.peekByte()
		switch {
		case b == ' ' || b == '\t' || b == '\r' || b == '\n':
			lx.advance()
		case b == '/' && lx.peekByteAt(1) == '/':
			for lx.pos < len(lx.src) && lx.peekByte() != '\n' {
				lx.advance()
			}
		case b == '/' && lx.peekByteAt(1) == '*':
			startLine, startCol := lx.line, lx.col
			lx.advance()
			lx.advance()
			closed := false
			for lx.pos < len(lx.src) {
				if lx.peekByte() == '*' && lx.peekByteAt(1) == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return errAt(startLine, startCol, "unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

// next lexes the token at the current position. At the end of the input,
// and at the first lexical error (kept in lx.err), it returns tokEOF.
func (lx *lexer) next() token {
	if err := lx.skipSpaceAndComments(); err != nil {
		return lx.fail(err)
	}
	if lx.pos >= len(lx.src) {
		return token{kind: tokEOF, line: lx.line, col: lx.col}
	}
	line, col := lx.line, lx.col
	b := lx.peekByte()
	switch {
	case isIdentStart(b):
		start := lx.pos
		for lx.pos < len(lx.src) && isIdentPart(lx.peekByte()) {
			lx.advance()
		}
		text := lx.src[start:lx.pos]
		kind := tokIdent
		if keywords[text] {
			kind = tokKeyword
		}
		return token{kind: kind, text: text, line: line, col: col}
	case unicode.IsDigit(rune(b)):
		start := lx.pos
		if b == '0' && (lx.peekByteAt(1) == 'x' || lx.peekByteAt(1) == 'X') {
			lx.advance()
			lx.advance()
			for lx.pos < len(lx.src) && isHexDigit(lx.peekByte()) {
				lx.advance()
			}
		} else {
			for lx.pos < len(lx.src) && (unicode.IsDigit(rune(lx.peekByte())) || lx.peekByte() == '_') {
				lx.advance()
			}
			// suffix: "ether" handled by parser as separate ident
		}
		return token{kind: tokNumber, text: strings.ReplaceAll(lx.src[start:lx.pos], "_", ""), line: line, col: col}
	case b == '"':
		lx.advance()
		start := lx.pos
		for lx.pos < len(lx.src) && lx.peekByte() != '"' {
			if lx.peekByte() == '\n' {
				return lx.fail(errAt(line, col, "unterminated string literal"))
			}
			lx.advance()
		}
		if lx.pos >= len(lx.src) {
			return lx.fail(errAt(line, col, "unterminated string literal"))
		}
		text := lx.src[start:lx.pos]
		lx.advance() // closing quote
		return token{kind: tokString, text: text, line: line, col: col}
	}
	two := ""
	if lx.pos+1 < len(lx.src) {
		two = lx.src[lx.pos : lx.pos+2]
	}
	switch two {
	case "==", "!=", "<=", ">=", "&&", "||", "=>":
		lx.advance()
		lx.advance()
		kind := tokOperator
		if two == "=>" {
			kind = tokPunct
		}
		return token{kind: kind, text: two, line: line, col: col}
	}
	switch b {
	case '(', ')', '{', '}', '[', ']', ';', ',', '.':
		lx.advance()
		return token{kind: tokPunct, text: string(b), line: line, col: col}
	case '+', '-', '*', '/', '%', '<', '>', '!', '=', '_':
		lx.advance()
		return token{kind: tokOperator, text: string(b), line: line, col: col}
	}
	return lx.fail(errAt(line, col, "unexpected character %q", string(b)))
}

// fail records the first lexical error and ends the token stream.
func (lx *lexer) fail(err error) token {
	lx.err = err
	return token{kind: tokEOF, line: lx.line, col: lx.col}
}

func isIdentStart(b byte) bool {
	return b == '_' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
}

func isIdentPart(b byte) bool {
	return isIdentStart(b) || (b >= '0' && b <= '9')
}

func isHexDigit(b byte) bool {
	return (b >= '0' && b <= '9') || (b >= 'a' && b <= 'f') || (b >= 'A' && b <= 'F')
}
