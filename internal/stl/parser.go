package stl

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Parse reads an STL formula from its concrete syntax. The grammar (in
// decreasing binding strength):
//
//	atom     := ident cmp number
//	primary  := atom | '(' formula ')' | '!' primary
//	         |  ('G'|'F') '[' int ',' int ']' primary
//	until    := primary [ 'U' '[' int ',' int ']' primary ]
//	and      := until ('&' until)*
//	or       := and ('|' and)*
//	formula  := or ['->' or]
//
// Identifiers may contain letters, digits, '_' and a trailing quote (BG').
// Equality atoms (== and !=) accept an optional tolerance suffix
// "ident == num ~ eps".
func Parse(input string) (Formula, error) {
	p := &parser{toks: lex(input)}
	f, err := p.parseFormula()
	if err != nil {
		return nil, fmt.Errorf("stl: parse %q: %w", input, err)
	}
	if !p.atEnd() {
		return nil, fmt.Errorf("stl: parse %q: trailing input at %q", input, p.peek().text)
	}
	return f, nil
}

type tokKind int

const (
	tokIdent tokKind = iota + 1
	tokNumber
	tokOp     // comparison
	tokAnd    // &
	tokOr     // |
	tokNot    // !
	tokArrow  // ->
	tokLParen // (
	tokRParen // )
	tokLBrack // [
	tokRBrack // ]
	tokComma
	tokTilde
	tokTemporal // G F U
	tokEOF
)

type token struct {
	kind tokKind
	text string
}

func lex(input string) []token {
	var toks []token
	i := 0
	for i < len(input) {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '(':
			toks = append(toks, token{tokLParen, "("})
			i++
		case c == ')':
			toks = append(toks, token{tokRParen, ")"})
			i++
		case c == '[':
			toks = append(toks, token{tokLBrack, "["})
			i++
		case c == ']':
			toks = append(toks, token{tokRBrack, "]"})
			i++
		case c == ',':
			toks = append(toks, token{tokComma, ","})
			i++
		case c == '~':
			toks = append(toks, token{tokTilde, "~"})
			i++
		case c == '&':
			toks = append(toks, token{tokAnd, "&"})
			i++
		case c == '|':
			toks = append(toks, token{tokOr, "|"})
			i++
		case c == '!':
			if i+1 < len(input) && input[i+1] == '=' {
				toks = append(toks, token{tokOp, "!="})
				i += 2
			} else {
				toks = append(toks, token{tokNot, "!"})
				i++
			}
		case c == '-' && i+1 < len(input) && input[i+1] == '>':
			toks = append(toks, token{tokArrow, "->"})
			i += 2
		case c == '>' || c == '<' || c == '=':
			if i+1 < len(input) && input[i+1] == '=' {
				toks = append(toks, token{tokOp, string(c) + "="})
				i += 2
			} else {
				toks = append(toks, token{tokOp, string(c)})
				i++
			}
		case c == '-' || c == '.' || unicode.IsDigit(c):
			j := i + 1
			for j < len(input) && (unicode.IsDigit(rune(input[j])) || input[j] == '.' ||
				input[j] == 'e' || input[j] == 'E' ||
				((input[j] == '+' || input[j] == '-') && (input[j-1] == 'e' || input[j-1] == 'E'))) {
				j++
			}
			toks = append(toks, token{tokNumber, input[i:j]})
			i = j
		case unicode.IsLetter(c) || c == '_':
			j := i + 1
			for j < len(input) && (unicode.IsLetter(rune(input[j])) || unicode.IsDigit(rune(input[j])) ||
				input[j] == '_' || input[j] == '\'') {
				j++
			}
			word := input[i:j]
			if (word == "G" || word == "F" || word == "U") && j < len(input) && input[j] == '[' {
				toks = append(toks, token{tokTemporal, word})
			} else {
				toks = append(toks, token{tokIdent, word})
			}
			i = j
		default:
			toks = append(toks, token{tokEOF, string(c)})
			i++
		}
	}
	toks = append(toks, token{tokEOF, ""})
	return toks
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) atEnd() bool { return p.peek().kind == tokEOF }

func (p *parser) expect(kind tokKind, what string) (token, error) {
	t := p.next()
	if t.kind != kind {
		return t, fmt.Errorf("expected %s, got %q", what, t.text)
	}
	return t, nil
}

func (p *parser) parseFormula() (Formula, error) {
	left, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tokArrow {
		p.next()
		right, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		return Implies{L: left, R: right}, nil
	}
	return left, nil
}

func (p *parser) parseOr() (Formula, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	fs := []Formula{left}
	for p.peek().kind == tokOr {
		p.next()
		f, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		fs = append(fs, f)
	}
	if len(fs) == 1 {
		return left, nil
	}
	return Or{Fs: fs}, nil
}

func (p *parser) parseAnd() (Formula, error) {
	left, err := p.parseUntil()
	if err != nil {
		return nil, err
	}
	fs := []Formula{left}
	for p.peek().kind == tokAnd {
		p.next()
		f, err := p.parseUntil()
		if err != nil {
			return nil, err
		}
		fs = append(fs, f)
	}
	if len(fs) == 1 {
		return left, nil
	}
	return And{Fs: fs}, nil
}

func (p *parser) parseUntil() (Formula, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tokTemporal && p.peek().text == "U" {
		p.next()
		lo, hi, err := p.parseInterval()
		if err != nil {
			return nil, err
		}
		right, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return Until{Lo: lo, Hi: hi, L: left, R: right}, nil
	}
	return left, nil
}

func (p *parser) parseInterval() (int, int, error) {
	if _, err := p.expect(tokLBrack, "'['"); err != nil {
		return 0, 0, err
	}
	loTok, err := p.expect(tokNumber, "interval start")
	if err != nil {
		return 0, 0, err
	}
	lo, err := strconv.Atoi(strings.TrimSuffix(loTok.text, ".0"))
	if err != nil {
		return 0, 0, fmt.Errorf("interval start %q: %w", loTok.text, err)
	}
	if _, err := p.expect(tokComma, "','"); err != nil {
		return 0, 0, err
	}
	hiTok, err := p.expect(tokNumber, "interval end")
	if err != nil {
		return 0, 0, err
	}
	hi, err := strconv.Atoi(strings.TrimSuffix(hiTok.text, ".0"))
	if err != nil {
		return 0, 0, fmt.Errorf("interval end %q: %w", hiTok.text, err)
	}
	if _, err := p.expect(tokRBrack, "']'"); err != nil {
		return 0, 0, err
	}
	if lo > hi {
		return 0, 0, fmt.Errorf("interval [%d,%d] has start after end", lo, hi)
	}
	return lo, hi, nil
}

func (p *parser) parsePrimary() (Formula, error) {
	switch t := p.peek(); t.kind {
	case tokNot:
		p.next()
		f, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return Not{F: f}, nil
	case tokLParen:
		p.next()
		f, err := p.parseFormula()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return f, nil
	case tokTemporal:
		p.next()
		lo, hi, err := p.parseInterval()
		if err != nil {
			return nil, err
		}
		f, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		switch t.text {
		case "G":
			return Globally{Lo: lo, Hi: hi, F: f}, nil
		case "F":
			return Eventually{Lo: lo, Hi: hi, F: f}, nil
		default:
			return nil, fmt.Errorf("operator %q needs a left operand", t.text)
		}
	case tokIdent:
		return p.parseAtom()
	default:
		return nil, fmt.Errorf("unexpected token %q", t.text)
	}
}

func (p *parser) parseAtom() (Formula, error) {
	id, err := p.expect(tokIdent, "identifier")
	if err != nil {
		return nil, err
	}
	opTok, err := p.expect(tokOp, "comparison operator")
	if err != nil {
		return nil, err
	}
	var op CmpOp
	switch opTok.text {
	case ">":
		op = OpGT
	case ">=":
		op = OpGE
	case "<":
		op = OpLT
	case "<=":
		op = OpLE
	case "==", "=":
		op = OpEQ
	case "!=":
		op = OpNE
	default:
		return nil, fmt.Errorf("unknown comparison %q", opTok.text)
	}
	numTok, err := p.expect(tokNumber, "number")
	if err != nil {
		return nil, err
	}
	v, err := strconv.ParseFloat(numTok.text, 64)
	if err != nil {
		return nil, fmt.Errorf("number %q: %w", numTok.text, err)
	}
	atom := Atom{Signal: id.text, Op: op, Threshold: v}
	if p.peek().kind == tokTilde {
		p.next()
		epsTok, err := p.expect(tokNumber, "tolerance")
		if err != nil {
			return nil, err
		}
		eps, err := strconv.ParseFloat(epsTok.text, 64)
		if err != nil {
			return nil, fmt.Errorf("tolerance %q: %w", epsTok.text, err)
		}
		atom.Eps = eps
	}
	return atom, nil
}
