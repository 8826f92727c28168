// Package lang implements the front end for tl, a small C-like
// language used to express workloads: a lexer, recursive-descent
// parser, semantic checker, AST-level for-loop unrolling, and lowering
// to the ir package's RISC-like CFG form.
//
// tl programs operate on 64-bit integers, global arrays, and
// functions with scalar parameters and results. The built-in
// function print(x) records x in the program's observable output
// stream, which the test suite uses as the semantic-preservation
// oracle across compiler configurations.
package lang

import "fmt"

// Kind enumerates token kinds.
type Kind uint8

// Token kinds.
const (
	EOF Kind = iota
	IDENT
	INT

	// Keywords.
	KwArray
	KwFunc
	KwVar
	KwIf
	KwElse
	KwWhile
	KwFor
	KwBreak
	KwContinue
	KwReturn

	// Punctuation.
	LParen
	RParen
	LBrace
	RBrace
	LBracket
	RBracket
	Comma
	Semicolon

	// Operators.
	Assign  // =
	OrOr    // ||
	AndAnd  // &&
	Pipe    // |
	Caret   // ^
	Amp     // &
	EqEq    // ==
	NotEq   // !=
	Lt      // <
	LtEq    // <=
	Gt      // >
	GtEq    // >=
	Shl     // <<
	Shr     // >>
	Plus    // +
	Minus   // -
	Star    // *
	Slash   // /
	Percent // %
	Not     // !
	Tilde   // ~
)

var kindNames = map[Kind]string{
	EOF: "EOF", IDENT: "identifier", INT: "integer",
	KwArray: "array", KwFunc: "func", KwVar: "var", KwIf: "if",
	KwElse: "else", KwWhile: "while", KwFor: "for", KwBreak: "break",
	KwContinue: "continue", KwReturn: "return",
	LParen: "(", RParen: ")", LBrace: "{", RBrace: "}",
	LBracket: "[", RBracket: "]", Comma: ",", Semicolon: ";",
	Assign: "=", OrOr: "||", AndAnd: "&&", Pipe: "|", Caret: "^",
	Amp: "&", EqEq: "==", NotEq: "!=", Lt: "<", LtEq: "<=", Gt: ">",
	GtEq: ">=", Shl: "<<", Shr: ">>", Plus: "+", Minus: "-",
	Star: "*", Slash: "/", Percent: "%", Not: "!", Tilde: "~",
}

// String returns a readable name for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

var keywords = map[string]Kind{
	"array": KwArray, "func": KwFunc, "var": KwVar, "if": KwIf,
	"else": KwElse, "while": KwWhile, "for": KwFor, "break": KwBreak,
	"continue": KwContinue, "return": KwReturn,
}

// Token is a lexed token with source position.
type Token struct {
	Kind Kind
	Text string
	Int  int64
	Line int
	Col  int
}

// Error is a front-end diagnostic with position information.
type Error struct {
	Line int
	Col  int
	Msg  string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("tl:%d:%d: %s", e.Line, e.Col, e.Msg)
}

func errf(line, col int, format string, args ...interface{}) *Error {
	return &Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}
