package rdbms

import (
	"encoding/binary"
	"math"
)

// encMatcher rejects heap records that fail a WHERE clause by reading the
// columns its sargable conjuncts name straight out of the encoded record
// bytes: no decode, no allocation. It only ever rejects. A record it lets
// through is decoded and the full WHERE is evaluated on it, so a matcher
// that rejected nothing would change no result.
//
// Equivalence rule: the matcher rejects a record only when DecodeTuple
// accepts it and evalExpr(where) returns a non-true value without error.
// The WHERE's top-level AND conjuncts are taken in evaluation order. A
// compiled `column op literal` conjunct (= < <= > >=, string, int or
// float literal) is decided as evalExpr decides it, through Compare's
// rules: NULL yields NULL; int and float columns compare with a numeric
// literal through their float64 images; a mismatched type is undecided,
// because evalExpr reports it as an error. Scanning the conjuncts, the
// first false one rejects: evalExpr's AND short-circuits there, and every
// earlier conjunct was true or NULL with no error. Reaching a conjunct
// that is not compiled, or an undecided one, lets the record through. If
// every conjunct is decided and one was NULL, the WHERE is NULL and the
// record is rejected. A malformed record, or one whose arity is not the
// schema's, is never rejected: decoding reports it as before.
// FuzzEncodedPredicate and TestIndexReadMatchesRowAtATime hold the rule.
//
// The zero value (no conjuncts) is no matcher. A matcher keeps no state
// between records.
type encMatcher struct {
	conj  []encConj // the WHERE's top-level conjuncts, in evaluation order
	ncols int       // the schema's arity
}

// maxEncConj bounds the conjuncts a matcher decides (one bit each per
// record); later ones count as not compiled.
const maxEncConj = 64

// encConj is one top-level conjunct; compiled is false for one the
// matcher cannot read (it stops the scan, see encMatcher).
type encConj struct {
	compiled bool
	col      int
	op       string // = < <= > >=
	str      bool   // string literal s (else the numeric literal f)
	s        string
	f        float64
}

// compileMatcher compiles where's top-level conjuncts over the table bound
// by b (named fromName). It returns the zero matcher when none compiles.
func compileMatcher(where Expr, b *binding, fromName string) encMatcher {
	conjuncts := SplitConjuncts(where)
	m := encMatcher{conj: make([]encConj, len(conjuncts)), ncols: len(b.cols)}
	usable := false
	for i, e := range conjuncts {
		if be, ok := e.(BinaryExpr); ok && i < maxEncConj {
			m.conj[i] = compileConj(be, b, fromName)
		}
		usable = usable || m.conj[i].compiled
	}
	if !usable {
		return encMatcher{}
	}
	return m
}

func compileConj(be BinaryExpr, b *binding, fromName string) encConj {
	col, lit, op, ok := sargable(be, fromName)
	if !ok {
		return encConj{}
	}
	i, err := b.lookup(ColumnRef{Column: col})
	if err != nil {
		return encConj{}
	}
	c := encConj{compiled: true, col: i, op: op}
	switch lit.Type {
	case TString:
		c.str, c.s = true, lit.S
	case TInt, TFloat:
		c.f, _ = lit.AsFloat()
	default:
		return encConj{}
	}
	return c
}

// Outcomes of one conjunct on one record.
const (
	conjTrue = iota
	conjFalse
	conjNull
	conjUndecided
)

// rejects reports whether the WHERE cannot hold for rec (see
// encMatcher). SplitRecord validates rec as DecodeTuple would; each
// compiled conjunct is decided at its column, and the outcomes are then
// read in conjunct order.
func (m *encMatcher) rejects(rec []byte) bool {
	if len(m.conj) == 0 || len(rec) < 4 || binary.LittleEndian.Uint32(rec[:4]) != uint32(m.ncols) {
		return false
	}
	var scratch [16]Field
	fields, err := SplitRecord(rec, scratch[:0])
	if err != nil {
		return false
	}
	var falses, nulls, undecided uint64 // bit j: conjunct j's outcome
	for j := range m.conj {
		c := &m.conj[j]
		if !c.compiled {
			continue
		}
		switch c.decide(fields[c.col]) {
		case conjFalse:
			falses |= 1 << j
		case conjNull:
			nulls |= 1 << j
		case conjUndecided:
			undecided |= 1 << j
		}
	}
	for j := range m.conj {
		bit := uint64(1) << j
		switch {
		case !m.conj[j].compiled || undecided&bit != 0:
			return false
		case falses&bit != 0:
			return true
		}
	}
	return nulls != 0
}

// decide evaluates the conjunct on one encoded value, whose bounds the
// caller has validated.
func (c *encConj) decide(val []byte) int {
	var cmp int
	switch t := Type(val[0]); t {
	case TNull:
		return conjNull
	case TInt, TFloat:
		if c.str {
			return conjUndecided
		}
		bits := binary.LittleEndian.Uint64(val[1:9])
		x := math.Float64frombits(bits)
		if t == TInt {
			x = float64(int64(bits))
		}
		// Compare's numeric rule, NaN included (neither less nor greater).
		switch {
		case x < c.f:
			cmp = -1
		case x > c.f:
			cmp = 1
		}
	case TString:
		if !c.str {
			return conjUndecided
		}
		// Comparisons of a converted []byte do not allocate.
		switch s := val[5:]; {
		case string(s) < c.s:
			cmp = -1
		case string(s) > c.s:
			cmp = 1
		}
	default:
		return conjUndecided
	}
	var holds bool
	switch c.op {
	case "=":
		holds = cmp == 0
	case "<":
		holds = cmp < 0
	case "<=":
		holds = cmp <= 0
	case ">":
		holds = cmp > 0
	case ">=":
		holds = cmp >= 0
	}
	if holds {
		return conjTrue
	}
	return conjFalse
}
