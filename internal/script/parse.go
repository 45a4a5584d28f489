// Package script implements a Tcl-subset interpreter.
//
// The PFI tool of Dawson & Jahanian (ICDCS '95) executes Tcl scripts in the
// send and receive filters of the probe/fault-injection layer. This package
// provides that scripting substrate from scratch: Tcl's command/word syntax
// (bare, "quoted" and {braced} words, $variable and [command] substitution,
// backslash escapes), a core command library (control flow, lists, strings,
// expr), persistent per-interpreter state, and registration of host commands
// written in Go — the equivalent of the paper's C-coded Tcl extensions.
//
// Supported subset, relative to Tcl 7.x: no arrays, no upvar/uplevel, no
// namespaces, no file or exec access (by design — scripts are sandboxed),
// and expr performs substitution on its braced argument like real Tcl.
package script

import (
	"fmt"
	"strings"
)

// segKind discriminates the parts a word is assembled from at runtime.
type segKind int

const (
	segLiteral segKind = iota + 1 // fixed text
	segVar                        // $name or ${name}
	segCmd                        // [script]
)

// segment is one substitution unit inside a word.
type segment struct {
	kind segKind
	text string  // literal text or variable name
	body *Script // parsed script for segCmd
}

// word is a sequence of segments concatenated at evaluation time.
// A braced word is a single literal segment with raw=true.
type word struct {
	segs []segment
	raw  bool // braced: exempt from substitution (already satisfied by parse)
	line int
}

// command is one parsed command: a list of words. words[0] names the command.
type command struct {
	words []word
	line  int
}

// Script is a parsed, reusable script. Parse once, evaluate many times —
// the PFI filters run their script on every message.
type Script struct {
	src  string
	cmds []command
}

// Source returns the original script text.
func (s *Script) Source() string { return s.src }

// ParseError describes a syntax error with a line number.
type ParseError struct {
	Line int
	Msg  string
	// Incomplete marks an error that only running out of input caused: a
	// brace, bracket, quote or ${name} still open. More text could finish
	// the script, which is how a REPL knows to read another line.
	Incomplete bool
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("script:%d: %s", e.Line, e.Msg)
}

type parser struct {
	src             string
	pos             int
	line            int
	consumedBracket bool // parseCommand consumed the terminating ']'
}

// Parse compiles a script to its AST form.
func Parse(src string) (*Script, error) {
	p := &parser{src: src, line: 1}
	cmds, err := p.parseCommands(eofEnd)
	if err != nil {
		return nil, err
	}
	return &Script{src: src, cmds: cmds}, nil
}

// MustParse is Parse for statically known-good scripts (tests, built-ins).
func MustParse(src string) *Script {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}

type endKind int

const (
	eofEnd     endKind = iota + 1 // parse to end of input
	bracketEnd                    // parse until unbalanced ']'
)

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

// unclosed is the error for input that ended inside a construct.
func (p *parser) unclosed(msg string) error {
	return &ParseError{Line: p.line, Msg: msg, Incomplete: true}
}

func (p *parser) parseCommands(end endKind) ([]command, error) {
	var cmds []command
	for {
		p.skipCommandSeparators()
		if p.atEnd() {
			if end == bracketEnd {
				return nil, p.unclosed("missing close-bracket")
			}
			return cmds, nil
		}
		if end == bracketEnd && p.src[p.pos] == ']' {
			p.pos++
			return cmds, nil
		}
		if p.src[p.pos] == '#' {
			p.skipComment()
			continue
		}
		cmd, err := p.parseCommand(end)
		if err != nil {
			return nil, err
		}
		if len(cmd.words) > 0 {
			cmds = append(cmds, cmd)
		}
		if end == bracketEnd && p.consumedBracket {
			p.consumedBracket = false
			return cmds, nil
		}
	}
}

func (p *parser) skipCommandSeparators() {
	for !p.atEnd() {
		c := p.src[p.pos]
		switch c {
		case ' ', '\t', '\r', ';':
			p.pos++
		case '\n':
			p.line++
			p.pos++
		case '\\':
			// Backslash-newline is a line continuation (whitespace).
			if p.pos+1 < len(p.src) && p.src[p.pos+1] == '\n' {
				p.line++
				p.pos += 2
			} else {
				return
			}
		default:
			return
		}
	}
}

func (p *parser) skipComment() {
	for !p.atEnd() {
		c := p.src[p.pos]
		if c == '\n' {
			return // separator loop consumes it and counts the line
		}
		if c == '\\' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '\n' {
			p.line++
			p.pos += 2
			continue
		}
		p.pos++
	}
}

func (p *parser) atEnd() bool { return p.pos >= len(p.src) }

// parseCommand reads words until a command separator (newline or ';'), EOF,
// or — when end==bracketEnd — the closing ']'.
func (p *parser) parseCommand(end endKind) (command, error) {
	cmd := command{line: p.line}
	for {
		p.skipWordSeparators()
		if p.atEnd() {
			return cmd, nil
		}
		c := p.src[p.pos]
		if c == '\n' || c == ';' {
			return cmd, nil
		}
		if end == bracketEnd && c == ']' {
			p.pos++
			p.consumedBracket = true
			return cmd, nil
		}
		w, err := p.parseWord(end)
		if err != nil {
			return cmd, err
		}
		cmd.words = append(cmd.words, w)
	}
}

func (p *parser) skipWordSeparators() {
	for !p.atEnd() {
		c := p.src[p.pos]
		if c == ' ' || c == '\t' || c == '\r' {
			p.pos++
			continue
		}
		if c == '\\' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '\n' {
			p.line++
			p.pos += 2
			continue
		}
		return
	}
}

func (p *parser) parseWord(end endKind) (word, error) {
	w := word{line: p.line}
	switch p.src[p.pos] {
	case '{':
		text, err := p.parseBraced()
		if err != nil {
			return w, err
		}
		w.raw = true
		w.segs = []segment{{kind: segLiteral, text: text}}
		return w, p.checkWordEnd(end)
	case '"':
		segs, err := p.parseQuoted()
		if err != nil {
			return w, err
		}
		w.segs = segs
		return w, p.checkWordEnd(end)
	default:
		segs, err := p.parseBare(end)
		if err != nil {
			return w, err
		}
		w.segs = segs
		return w, nil
	}
}

// checkWordEnd ensures a quoted/braced word is followed by a separator.
func (p *parser) checkWordEnd(end endKind) error {
	if p.atEnd() {
		return nil
	}
	switch c := p.src[p.pos]; c {
	case ' ', '\t', '\r', '\n', ';':
		return nil
	case ']':
		if end == bracketEnd {
			return nil
		}
	case '\\':
		if p.pos+1 < len(p.src) && p.src[p.pos+1] == '\n' {
			return nil
		}
	}
	return p.errf("extra characters after close-brace or close-quote")
}

// parseBraced consumes {...} with balanced-brace counting; no substitution.
func (p *parser) parseBraced() (string, error) {
	startLine := p.line
	p.pos++ // consume '{'
	depth := 1
	var b strings.Builder
	for !p.atEnd() {
		c := p.src[p.pos]
		switch c {
		case '\\':
			// Inside braces backslashes are literal, but \{ \} don't count
			// toward nesting and backslash-newline is kept as-is.
			if p.pos+1 < len(p.src) {
				if p.src[p.pos+1] == '\n' {
					p.line++
				}
				b.WriteByte(c)
				b.WriteByte(p.src[p.pos+1])
				p.pos += 2
				continue
			}
			b.WriteByte(c)
			p.pos++
		case '{':
			depth++
			b.WriteByte(c)
			p.pos++
		case '}':
			depth--
			if depth == 0 {
				p.pos++
				return b.String(), nil
			}
			b.WriteByte(c)
			p.pos++
		case '\n':
			p.line++
			b.WriteByte(c)
			p.pos++
		default:
			b.WriteByte(c)
			p.pos++
		}
	}
	p.line = startLine
	return "", p.unclosed("missing close-brace")
}

// parseQuoted consumes "..." with $, [] and backslash substitution.
func (p *parser) parseQuoted() ([]segment, error) {
	p.pos++ // consume '"'
	var segs []segment
	var lit strings.Builder
	flush := func() {
		if lit.Len() > 0 {
			segs = append(segs, segment{kind: segLiteral, text: lit.String()})
			lit.Reset()
		}
	}
	for !p.atEnd() {
		c := p.src[p.pos]
		switch c {
		case '"':
			p.pos++
			flush()
			if segs == nil {
				segs = []segment{{kind: segLiteral, text: ""}}
			}
			return segs, nil
		case '$':
			if seg, ok, err := p.parseVarRef(); err != nil {
				return nil, err
			} else if ok {
				flush()
				segs = append(segs, seg)
			} else {
				lit.WriteByte('$')
			}
		case '[':
			seg, err := p.parseCmdSub()
			if err != nil {
				return nil, err
			}
			flush()
			segs = append(segs, seg)
		case '\\':
			s, err := p.parseBackslash()
			if err != nil {
				return nil, err
			}
			lit.WriteString(s)
		case '\n':
			p.line++
			lit.WriteByte(c)
			p.pos++
		default:
			lit.WriteByte(c)
			p.pos++
		}
	}
	return nil, p.unclosed("missing closing quote")
}

// parseBare consumes an unquoted word.
func (p *parser) parseBare(end endKind) ([]segment, error) {
	var segs []segment
	var lit strings.Builder
	flush := func() {
		if lit.Len() > 0 {
			segs = append(segs, segment{kind: segLiteral, text: lit.String()})
			lit.Reset()
		}
	}
	for !p.atEnd() {
		c := p.src[p.pos]
		switch c {
		case ' ', '\t', '\r', '\n', ';':
			flush()
			return segs, nil
		case ']':
			if end == bracketEnd {
				flush()
				return segs, nil
			}
			lit.WriteByte(c)
			p.pos++
		case '$':
			if seg, ok, err := p.parseVarRef(); err != nil {
				return nil, err
			} else if ok {
				flush()
				segs = append(segs, seg)
			} else {
				lit.WriteByte('$')
			}
		case '[':
			seg, err := p.parseCmdSub()
			if err != nil {
				return nil, err
			}
			flush()
			segs = append(segs, seg)
		case '\\':
			if p.pos+1 < len(p.src) && p.src[p.pos+1] == '\n' {
				flush()
				return segs, nil // line continuation ends the word
			}
			s, err := p.parseBackslash()
			if err != nil {
				return nil, err
			}
			lit.WriteString(s)
		default:
			lit.WriteByte(c)
			p.pos++
		}
	}
	flush()
	return segs, nil
}

// parseVarRef parses $name or ${name}. Returns ok=false for a bare '$'.
func (p *parser) parseVarRef() (segment, bool, error) {
	start := p.pos
	p.pos++ // consume '$'
	if p.atEnd() {
		return segment{}, false, nil
	}
	if p.src[p.pos] == '{' {
		p.pos++
		nameStart := p.pos
		for !p.atEnd() && p.src[p.pos] != '}' {
			if p.src[p.pos] == '\n' {
				p.line++
			}
			p.pos++
		}
		if p.atEnd() {
			return segment{}, false, p.unclosed("missing close-brace for variable name")
		}
		name := p.src[nameStart:p.pos]
		p.pos++ // consume '}'
		return segment{kind: segVar, text: name}, true, nil
	}
	nameStart := p.pos
	for !p.atEnd() && isVarNameChar(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == nameStart {
		p.pos = start + 1
		return segment{}, false, nil
	}
	return segment{kind: segVar, text: p.src[nameStart:p.pos]}, true, nil
}

func isVarNameChar(c byte) bool {
	return c == '_' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

// parseCmdSub parses [script] into a nested parsed script.
func (p *parser) parseCmdSub() (segment, error) {
	p.pos++ // consume '['
	sub := &parser{src: p.src, pos: p.pos, line: p.line}
	cmds, err := sub.parseCommands(bracketEnd)
	if err != nil {
		return segment{}, err
	}
	body := &Script{src: p.src[p.pos : sub.pos-1], cmds: cmds}
	p.pos = sub.pos
	p.line = sub.line
	return segment{kind: segCmd, body: body}, nil
}

// parseBackslash handles escape sequences, returning the replacement text.
func (p *parser) parseBackslash() (string, error) {
	p.pos++ // consume '\'
	if p.atEnd() {
		return "\\", nil
	}
	c := p.src[p.pos]
	p.pos++
	switch c {
	case 'n':
		return "\n", nil
	case 't':
		return "\t", nil
	case 'r':
		return "\r", nil
	case 'a':
		return "\a", nil
	case 'b':
		return "\b", nil
	case 'f':
		return "\f", nil
	case 'v':
		return "\v", nil
	case '\n':
		p.line++
		// Backslash-newline plus following whitespace collapses to a space.
		for !p.atEnd() && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
			p.pos++
		}
		return " ", nil
	case 'x':
		val := 0
		n := 0
		for !p.atEnd() && n < 2 && isHexDigit(p.src[p.pos]) {
			val = val*16 + hexVal(p.src[p.pos])
			p.pos++
			n++
		}
		if n == 0 {
			return "x", nil
		}
		return string(rune(val)), nil
	default:
		if c >= '0' && c <= '7' {
			val := int(c - '0')
			n := 1
			for !p.atEnd() && n < 3 && p.src[p.pos] >= '0' && p.src[p.pos] <= '7' {
				val = val*8 + int(p.src[p.pos]-'0')
				p.pos++
				n++
			}
			return string(rune(val)), nil
		}
		return string(c), nil
	}
}

func isHexDigit(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	default:
		return int(c-'A') + 10
	}
}
