// Command reach reports the functions that no binary of this module links.
//
// It builds every main package with inlining off (-gcflags=all=-l, so a
// called function keeps its own symbol), reads the text symbols of each
// binary with `go tool nm`, and parses every non-test function declaration
// of the module. Each declaration that no symbol maps back to is written to
// REACHABILITY.txt at the module root as one sorted line, "pkg.Recv.Name
// <lines>", followed by a total. Lines carry no line numbers, so edits
// elsewhere in a file leave the report unchanged.
//
// Run it from anywhere inside the module:
//
//	go run ./internal/tools/reach
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(1)
	}
}

func run() error {
	mod, err := goOutput("list", "-m", "-f", "{{.Path}}\t{{.Dir}}")
	if err != nil {
		return err
	}
	module, root, _ := strings.Cut(strings.TrimSpace(mod), "\t")

	pkgs, err := listPackages(root)
	if err != nil {
		return err
	}
	var decls []decl
	fset := token.NewFileSet()
	for _, p := range pkgs {
		for _, name := range p.files {
			path := filepath.Join(p.dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			decls = append(decls, fileDecls(fset, p.importPath, f)...)
		}
	}

	tmp, err := os.MkdirTemp("", "reach")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	var symbols []string
	for i, p := range pkgs {
		if p.name != "main" {
			continue
		}
		bin := filepath.Join(tmp, fmt.Sprintf("bin%d", i))
		if _, err := goOutput("build", "-gcflags=all=-l", "-o", bin, p.importPath); err != nil {
			return err
		}
		out, err := goOutput("tool", "nm", bin)
		if err != nil {
			return err
		}
		symbols = append(symbols, textSymbols(out, p.importPath)...)
	}

	lines := report(decls, symbols, module)
	return os.WriteFile(filepath.Join(root, "REACHABILITY.txt"), []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}

// goOutput runs the go command in the current directory and returns its
// standard output; a failure carries the command's standard error.
func goOutput(args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go %s: %v: %s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return string(out), nil
}

type pkg struct {
	name, importPath, dir string
	files                 []string
}

// listPackages returns the module's packages with their non-test Go files
// (GoFiles honours build constraints, so the files of this platform).
func listPackages(root string) ([]pkg, error) {
	out, err := goOutput("list", "-f", "{{.Name}}\t{{.ImportPath}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", root+"/...")
	if err != nil {
		return nil, err
	}
	var pkgs []pkg
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		f := strings.Split(sc.Text(), "\t")
		if len(f) != 4 {
			return nil, fmt.Errorf("unexpected go list line %q", sc.Text())
		}
		pkgs = append(pkgs, pkg{name: f[0], importPath: f[1], dir: f[2], files: strings.Fields(f[3])})
	}
	return pkgs, nil
}

// decl is one function declaration, named "importpath.Name" or
// "importpath.Recv.Name" with the receiver's type name stripped of '*' and
// type parameters: the form its linker symbol takes once those are
// stripped too.
type decl struct {
	name  string
	lines int
}

// fileDecls returns the function declarations of f that a binary could
// link. A method with an empty body, such as an interface marker
// (`func (*Select) stmt() {}`), is left out: nothing calls it, so the linker
// drops it even when its type is live.
func fileDecls(fset *token.FileSet, importPath string, f *ast.File) []decl {
	var out []decl
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		name := importPath + "." + fd.Name.Name
		if fd.Recv != nil {
			if len(fd.Body.List) == 0 {
				continue
			}
			name = importPath + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
		}
		lines := fset.Position(fd.End()).Line - fset.Position(fd.Pos()).Line + 1
		out = append(out, decl{name: name, lines: lines})
	}
	return out
}

func recvName(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.StarExpr:
		return recvName(t.X)
	case *ast.IndexExpr:
		return recvName(t.X)
	case *ast.IndexListExpr:
		return recvName(t.X)
	case *ast.ParenExpr:
		return recvName(t.X)
	case *ast.Ident:
		return t.Name
	}
	return ""
}

// textSymbols returns the names of the text (T/t) symbols in `go tool nm`
// output, with the "main." prefix of a main package's own symbols replaced
// by that package's import path.
func textSymbols(nm, mainPath string) []string {
	var out []string
	sc := bufio.NewScanner(strings.NewReader(nm))
	for sc.Scan() {
		// "<addr> <type> <name>", where a name may itself contain spaces.
		f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
		if len(f) != 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		name := f[2]
		if strings.HasPrefix(name, "main.") {
			name = mainPath + name[len("main"):]
		}
		out = append(out, name)
	}
	return out
}

// declName maps a text symbol of the module to the name of the declaration
// it was compiled from. Type arguments ("sortedKeys[go.shape.*uint8]"),
// pointer receivers ("(*T).M"), closures and wrappers ("F.func1.2",
// "(*T).M.deferwrap1", "T.M-fm") all map back to the function that
// declares them.
func declName(sym, module string, declared map[string]bool) (string, bool) {
	if !strings.HasPrefix(sym, module+"/") && !strings.HasPrefix(sym, module+".") {
		return "", false
	}
	sym = stripBrackets(sym)
	slash := strings.LastIndex(sym, "/")
	dot := strings.Index(sym[slash+1:], ".")
	if dot < 0 {
		return "", false
	}
	pkgPath, rest := sym[:slash+1+dot], sym[slash+1+dot+1:]
	rest = strings.TrimSuffix(rest, "-fm")
	rest = strings.NewReplacer("(*", "", ")", "").Replace(rest)
	parts := strings.Split(rest, ".")
	if len(parts) >= 2 && declared[pkgPath+"."+parts[0]+"."+parts[1]] {
		return pkgPath + "." + parts[0] + "." + parts[1], true
	}
	if declared[pkgPath+"."+parts[0]] {
		return pkgPath + "." + parts[0], true
	}
	return "", false
}

// stripBrackets removes every bracketed type-argument list, nested ones
// included.
func stripBrackets(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// report returns the sorted "pkg.Name <lines>" line of every declaration
// no symbol maps to, with the module prefix trimmed from pkg, then a total
// line. Package init functions are all reached or all not: their symbols
// (init.0, init.1, ...) are numbered rather than named.
func report(decls []decl, symbols []string, module string) []string {
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.name] = true
	}
	reached := map[string]bool{}
	for _, s := range symbols {
		if name, ok := declName(s, module, declared); ok {
			reached[name] = true
		}
	}
	var lines []string
	total := 0
	for _, d := range decls {
		if reached[d.name] {
			continue
		}
		total += d.lines
		lines = append(lines, fmt.Sprintf("%s %d", strings.TrimPrefix(d.name, module+"/"), d.lines))
	}
	sort.Strings(lines)
	return append(lines, fmt.Sprintf("total %d lines in %d functions", total, len(lines)))
}
