package main

import (
	"go/parser"
	"go/token"
	"slices"
	"testing"
)

const fixture = `package fix

type V struct{ n int }

// Val has a value receiver; a binary that calls it through a pointer
// links only the compiler's (*V).Val wrapper.
func (v V) Val() int { return v.n }

func (v *V) Ptr() int { return v.n }

func (v *V) Unused() int {
	return v.n
}

type List[T any] struct{ items []T }

func (l *List[T]) Len() int { return len(l.items) }

func Keys[K comparable](m map[K]int) []K {
	var out []K
	for k := range m {
		out = append(out, k)
	}
	return out
}

func Outer() func() int {
	return func() int { return 1 }
}

type Expr interface{ expr() }

func (*V) expr() {}

func Dead() int { return 0 }

func main() { Outer()() }
`

// nm is `go tool nm` output for a binary built from the fixture: its
// main package's symbols carry "main.", the rest their import path.
const nm = `  4a1b20 T m/fix.(*V).Val
  4a1b40 T m/fix.(*V).Ptr
  4a1b60 T m/fix.(*List[go.shape.int]).Len
  4a1b80 T m/fix.Keys[go.shape.string]
  4a1ba0 T m/fix.Outer.func1
  4a1bc0 T main.main
  4a1be0 T runtime.main
  5b0000 D m/fix..dict.Keys[string]
         U m/fix.Dead
`

func TestReportMapsSymbolsToDeclarations(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", fixture, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	decls := fileDecls(fset, "m/fix", f)
	for _, d := range decls {
		if d.name == "m/fix.V.expr" {
			t.Fatal("the empty-bodied marker method V.expr was not skipped")
		}
	}
	// The fixture plays both roles: the library package m/fix and, through
	// "main.main", the main package m/fix itself.
	got := report(decls, textSymbols(nm, "m/fix"), "m")
	want := []string{
		"fix.Dead 1",
		"fix.V.Unused 3",
		"total 4 lines in 2 functions",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("report:\n got %q\nwant %q", got, want)
	}
}

func TestStripBrackets(t *testing.T) {
	for in, want := range map[string]string{
		"m/x.sortedKeys[go.shape.*uint8]":                       "m/x.sortedKeys",
		"m/x.(*T[go.shape.struct { a []int }]).M":               "m/x.(*T).M",
		"m/x.F[go.shape.[]m/y.T,go.shape.map[string]int].func1": "m/x.F.func1",
	} {
		if got := stripBrackets(in); got != want {
			t.Errorf("stripBrackets(%q) = %q, want %q", in, got, want)
		}
	}
}
