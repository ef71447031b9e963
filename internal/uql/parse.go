// Package uql implements the paper's declarative IE+II+HI language (the
// heart of the processing layer, Figure 1 Parts I-II): a small language in
// which developers write programs that extract attributes from document
// collections, integrate the results (schema matching, entity
// resolution), route uncertain pieces to humans, and store the final
// structure through the environment's Store sink (the system that owns
// the table writes it). Programs are parsed to an AST, compiled to a
// logical plan, optimized (document prefiltering, early confidence
// filtering, parallel extraction), and executed.
//
// Grammar (statements end with ';'):
//
//	EXTRACT attr [, attr]* FROM docs USING extractor
//	    [MINCONF f] [KIND word] INTO rel ;
//	INTEGRATE srcRel INTO dstRel [THRESHOLD f] ;
//	RESOLVE rel [THRESHOLD f] [BUDGET n] INTO rel2 ;
//	ASK rel [MINCONF f] [BUDGET n] ;
//	STORE rel INTO TABLE name ;
package uql

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Stmt is one UQL statement.
type Stmt interface{ uqlStmt() }

// ExtractStmt extracts attributes from a document source.
type ExtractStmt struct {
	Attrs   []string // empty = all attributes the extractor yields
	Source  string   // document source name bound in the Env
	Using   string   // extractor registry name
	MinConf float64  // drop fields below this confidence (0 = keep all)
	Kind    string   // optional doc Meta["kind"] filter
	Into    string   // output relation
}

// IntegrateStmt unifies the attribute names of Src against Dst and unions
// the rows into Dst (schema matching).
type IntegrateStmt struct {
	Src       string
	Dst       string
	Threshold float64 // match acceptance threshold (default 0.7)
}

// ResolveStmt clusters entity names in a relation (entity resolution),
// optionally asking the crowd about borderline pairs, and writes rows with
// canonicalized entities into Into.
type ResolveStmt struct {
	Rel       string
	Threshold float64 // link threshold (default 0.82)
	Budget    int     // max borderline pairs to ask humans (0 = none)
	Into      string
}

// AskStmt routes low-confidence facts in a relation to the crowd and
// applies verdicts as Bayesian confidence updates.
type AskStmt struct {
	Rel     string
	MinConf float64 // facts below this are candidates (default 0.7)
	Budget  int     // max questions (0 = unlimited)
}

// StoreStmt hands a relation to the environment's Store sink for a table.
type StoreStmt struct {
	Rel   string
	Table string
}

func (ExtractStmt) uqlStmt()   {}
func (IntegrateStmt) uqlStmt() {}
func (ResolveStmt) uqlStmt()   {}
func (AskStmt) uqlStmt()       {}
func (StoreStmt) uqlStmt()     {}

// Program is a parsed UQL program.
type Program struct {
	Stmts []Stmt
}

type uqlToken struct {
	text string // keywords uppercased
	kind int    // 0 word, 1 number, 2 symbol
	pos  int
}

const (
	tWord = iota
	tNumber
	tSymbol
	tEOF
)

var uqlKeywords = map[string]bool{
	"EXTRACT": true, "FROM": true, "USING": true, "MINCONF": true,
	"KIND": true, "INTO": true, "INTEGRATE": true, "THRESHOLD": true,
	"RESOLVE": true, "BUDGET": true, "ASK": true, "STORE": true,
	"TABLE": true,
}

func lexUQL(input string) ([]uqlToken, error) {
	var toks []uqlToken
	i := 0
	for i < len(input) {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '#': // comment to end of line
			for i < len(input) && input[i] != '\n' {
				i++
			}
		case unicode.IsLetter(c) || c == '_':
			j := i
			for j < len(input) && (unicode.IsLetter(rune(input[j])) || unicode.IsDigit(rune(input[j])) || input[j] == '_') {
				j++
			}
			word := input[i:j]
			if uqlKeywords[strings.ToUpper(word)] {
				word = strings.ToUpper(word)
			}
			toks = append(toks, uqlToken{text: word, kind: tWord, pos: i})
			i = j
		case unicode.IsDigit(c) || c == '.':
			j := i
			for j < len(input) && (unicode.IsDigit(rune(input[j])) || input[j] == '.') {
				j++
			}
			toks = append(toks, uqlToken{text: input[i:j], kind: tNumber, pos: i})
			i = j
		case c == ',' || c == ';':
			toks = append(toks, uqlToken{text: string(c), kind: tSymbol, pos: i})
			i++
		default:
			return nil, fmt.Errorf("uql: unexpected character %q at %d", c, i)
		}
	}
	toks = append(toks, uqlToken{kind: tEOF, pos: len(input)})
	return toks, nil
}

// Parse parses a UQL program.
func Parse(input string) (*Program, error) {
	toks, err := lexUQL(input)
	if err != nil {
		return nil, err
	}
	p := &uqlParser{toks: toks}
	prog := &Program{}
	for p.peek().kind != tEOF {
		stmt, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		prog.Stmts = append(prog.Stmts, stmt)
		if err := p.expectSymbol(";"); err != nil {
			return nil, err
		}
	}
	if len(prog.Stmts) == 0 {
		return nil, fmt.Errorf("uql: empty program")
	}
	return prog, nil
}

type uqlParser struct {
	toks []uqlToken
	pos  int
}

func (p *uqlParser) peek() uqlToken { return p.toks[p.pos] }
func (p *uqlParser) next() uqlToken { t := p.toks[p.pos]; p.pos++; return t }

func (p *uqlParser) errorf(format string, args ...any) error {
	return fmt.Errorf("uql: %s (near position %d)", fmt.Sprintf(format, args...), p.peek().pos)
}

func (p *uqlParser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tWord || t.text != kw {
		return fmt.Errorf("uql: expected %s, got %q (position %d)", kw, t.text, t.pos)
	}
	return nil
}

func (p *uqlParser) acceptKeyword(kw string) bool {
	if p.peek().kind == tWord && p.peek().text == kw {
		p.next()
		return true
	}
	return false
}

func (p *uqlParser) expectSymbol(sym string) error {
	t := p.next()
	if t.kind != tSymbol || t.text != sym {
		return fmt.Errorf("uql: expected %q, got %q (position %d)", sym, t.text, t.pos)
	}
	return nil
}

func (p *uqlParser) expectWord() (string, error) {
	t := p.next()
	if t.kind != tWord {
		return "", fmt.Errorf("uql: expected identifier, got %q (position %d)", t.text, t.pos)
	}
	if uqlKeywords[t.text] {
		return "", fmt.Errorf("uql: keyword %s used as identifier (position %d)", t.text, t.pos)
	}
	return t.text, nil
}

func (p *uqlParser) expectNumber() (float64, error) {
	t := p.next()
	if t.kind != tNumber {
		return 0, fmt.Errorf("uql: expected number, got %q (position %d)", t.text, t.pos)
	}
	f, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, fmt.Errorf("uql: bad number %q", t.text)
	}
	return f, nil
}

func (p *uqlParser) parseStmt() (Stmt, error) {
	t := p.peek()
	if t.kind != tWord {
		return nil, p.errorf("expected statement keyword, got %q", t.text)
	}
	switch t.text {
	case "EXTRACT":
		return p.parseExtract()
	case "INTEGRATE":
		return p.parseIntegrate()
	case "RESOLVE":
		return p.parseResolve()
	case "ASK":
		return p.parseAsk()
	case "STORE":
		return p.parseStore()
	}
	return nil, p.errorf("unknown statement %q", t.text)
}

func (p *uqlParser) parseExtract() (Stmt, error) {
	p.next() // EXTRACT
	stmt := ExtractStmt{}
	for {
		attr, err := p.expectWord()
		if err != nil {
			return nil, err
		}
		stmt.Attrs = append(stmt.Attrs, attr)
		if p.peek().kind == tSymbol && p.peek().text == "," {
			p.next()
			continue
		}
		break
	}
	// "EXTRACT all FROM ..." means no attribute restriction.
	if len(stmt.Attrs) == 1 && strings.EqualFold(stmt.Attrs[0], "all") {
		stmt.Attrs = nil
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	src, err := p.expectWord()
	if err != nil {
		return nil, err
	}
	stmt.Source = src
	if err := p.expectKeyword("USING"); err != nil {
		return nil, err
	}
	using, err := p.expectWord()
	if err != nil {
		return nil, err
	}
	stmt.Using = using
	for {
		switch {
		case p.acceptKeyword("MINCONF"):
			f, err := p.expectNumber()
			if err != nil {
				return nil, err
			}
			stmt.MinConf = f
		case p.acceptKeyword("KIND"):
			k, err := p.expectWord()
			if err != nil {
				return nil, err
			}
			stmt.Kind = k
		case p.acceptKeyword("INTO"):
			rel, err := p.expectWord()
			if err != nil {
				return nil, err
			}
			stmt.Into = rel
			return stmt, nil
		default:
			return nil, p.errorf("expected MINCONF, KIND, or INTO")
		}
	}
}

func (p *uqlParser) parseIntegrate() (Stmt, error) {
	p.next()
	src, err := p.expectWord()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	dst, err := p.expectWord()
	if err != nil {
		return nil, err
	}
	stmt := IntegrateStmt{Src: src, Dst: dst, Threshold: 0.7}
	if p.acceptKeyword("THRESHOLD") {
		f, err := p.expectNumber()
		if err != nil {
			return nil, err
		}
		stmt.Threshold = f
	}
	return stmt, nil
}

func (p *uqlParser) parseResolve() (Stmt, error) {
	p.next()
	rel, err := p.expectWord()
	if err != nil {
		return nil, err
	}
	stmt := ResolveStmt{Rel: rel, Threshold: 0.82}
	for {
		switch {
		case p.acceptKeyword("THRESHOLD"):
			f, err := p.expectNumber()
			if err != nil {
				return nil, err
			}
			stmt.Threshold = f
		case p.acceptKeyword("BUDGET"):
			f, err := p.expectNumber()
			if err != nil {
				return nil, err
			}
			stmt.Budget = int(f)
		case p.acceptKeyword("INTO"):
			into, err := p.expectWord()
			if err != nil {
				return nil, err
			}
			stmt.Into = into
			return stmt, nil
		default:
			return nil, p.errorf("expected THRESHOLD, BUDGET, or INTO")
		}
	}
}

func (p *uqlParser) parseAsk() (Stmt, error) {
	p.next()
	rel, err := p.expectWord()
	if err != nil {
		return nil, err
	}
	stmt := AskStmt{Rel: rel, MinConf: 0.7}
	for {
		switch {
		case p.acceptKeyword("MINCONF"):
			f, err := p.expectNumber()
			if err != nil {
				return nil, err
			}
			stmt.MinConf = f
		case p.acceptKeyword("BUDGET"):
			f, err := p.expectNumber()
			if err != nil {
				return nil, err
			}
			stmt.Budget = int(f)
		default:
			return stmt, nil
		}
	}
}

func (p *uqlParser) parseStore() (Stmt, error) {
	p.next()
	rel, err := p.expectWord()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	table, err := p.expectWord()
	if err != nil {
		return nil, err
	}
	return StoreStmt{Rel: rel, Table: table}, nil
}
