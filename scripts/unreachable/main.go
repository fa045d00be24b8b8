// Command unreachable lists the non-test functions under internal/ that
// no binary of the module reaches. It builds every main package under
// cmd/ and examples/, plus the bench module, with inlining off
// (-gcflags=all=-l) so each called function keeps its own text symbol,
// reads the coregap/internal/... text symbols with `go tool nm`, and
// reports every func declared in a non-test file under internal/ that
// none of the binaries contains.
//
// It is also a gate. Every unreachable function must be listed in
// allow.txt (next to this file) with a one-word reason, and every listed
// function must still be declared and still be unreachable; anything
// else is reported and the command exits 1, so new dead code and stale
// list lines both fail. Run it from the module root:
//
//	go run ./scripts/unreachable
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

const (
	module    = "coregap"
	allowFile = "scripts/unreachable/allow.txt"
)

// reasons are the allowlist's one-word reasons for keeping a function
// that no binary reaches.
var reasons = map[string]bool{
	"accessor":  true, // a read-only getter tests observe state through
	"knob":      true, // a setter tests configure a model through
	"reference": true, // an implementation tests compare live code against
	"api":       true, // a root-package (coregap) entry point
}

// decl is one func declaration: its symbol key (receiver type and name
// joined by a dot, or the bare name) within its package.
type decl struct {
	pkg, key string
	pos      token.Position
	lines    int // from the doc comment's first line to the closing brace
}

// name is the declaration as reports and allow.txt spell it:
// "sim.Engine.Now" for coregap/internal/sim's Engine.Now.
func (d decl) name() string {
	return strings.TrimPrefix(d.pkg, module+"/internal/") + "." + d.key
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "unreachable:", err)
		os.Exit(1)
	}
}

func run() error {
	decls, err := declarations("internal")
	if err != nil {
		return err
	}
	text, err := os.ReadFile(allowFile)
	if err != nil {
		return err
	}
	allow, err := parseAllow(string(text))
	if err != nil {
		return err
	}
	pkgs := map[string]bool{}
	for _, d := range decls {
		pkgs[d.pkg] = true
	}
	tmp, err := os.MkdirTemp("", "unreachable")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	bins, err := build(tmp)
	if err != nil {
		return err
	}
	reached := map[string]bool{}
	for _, bin := range bins {
		out, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			return fmt.Errorf("go tool nm %s: %w", filepath.Base(bin), err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if pkg, key, ok := textSymbol(line, pkgs); ok {
				markReached(reached, pkg, key)
			}
		}
	}
	dead, lines := 0, 0
	for _, d := range decls {
		if reached[d.pkg+"."+d.key] {
			continue
		}
		dead++
		lines += d.lines
		fmt.Printf("%s:%d\t%s\t%d\t%s\n", d.pos.Filename, d.pos.Line, d.name(), d.lines, allow[d.name()])
	}
	fmt.Printf("unreachable: %d of %d functions, %d lines (with doc comments), reached by none of %d binaries\n",
		dead, len(decls), lines, len(bins))
	if problems := gate(decls, reached, allow); len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "unreachable:", p)
		}
		return fmt.Errorf("%d problem(s); delete the dead code, or list it in %s with a reason", len(problems), allowFile)
	}
	return nil
}

// gate checks the scan against the allowlist: a function no binary
// reaches must be listed, and a listed function must be declared and
// unreached. It returns one line per violation, in declaration order
// and then in name order for list lines naming nothing declared.
func gate(decls []decl, reached map[string]bool, allow map[string]string) []string {
	var problems []string
	declared := map[string]bool{}
	for _, d := range decls {
		name := d.name()
		declared[name] = true
		_, listed := allow[name]
		switch dead := !reached[d.pkg+"."+d.key]; {
		case dead && !listed:
			problems = append(problems, fmt.Sprintf("%s:%d: %s is reached by no binary and not listed", d.pos.Filename, d.pos.Line, name))
		case !dead && listed:
			problems = append(problems, fmt.Sprintf("%s is listed but now reached", name))
		}
	}
	var gone []string
	for name := range allow {
		if !declared[name] {
			gone = append(gone, fmt.Sprintf("%s is listed but not declared", name))
		}
	}
	sort.Strings(gone)
	return append(problems, gone...)
}

// parseAllow reads allow.txt: one "name reason" pair per line, blank
// lines and #-comments ignored. A line with an unknown reason, a name
// listed twice or any other shape is an error.
func parseAllow(text string) (map[string]string, error) {
	allow := map[string]string{}
	for i, line := range strings.Split(text, "\n") {
		body, _, _ := strings.Cut(line, "#")
		f := strings.Fields(body)
		switch {
		case len(f) == 0:
			continue
		case len(f) != 2 || !reasons[f[1]]:
			return nil, fmt.Errorf("%s:%d: want \"name reason\" with a known reason, got %q", allowFile, i+1, line)
		}
		if _, dup := allow[f[0]]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", allowFile, i+1, f[0])
		}
		allow[f[0]] = f[1]
	}
	return allow, nil
}

// build compiles every binary the scan covers into dir and returns
// their paths.
func build(dir string) ([]string, error) {
	gcflags := "-gcflags=all=-l"
	cmd := exec.Command("go", "build", gcflags, "-o", dir+string(filepath.Separator), "./cmd/...", "./examples/...")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build: %w", err)
	}
	cmd = exec.Command("go", "-C", "bench", "build", gcflags, "-o", filepath.Join(dir, "bench"), ".")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build bench: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	bins := make([]string, len(ents))
	for i, e := range ents {
		bins[i] = filepath.Join(dir, e.Name())
	}
	return bins, nil
}

// declarations parses every non-test Go file under root and returns its
// func declarations in file order.
func declarations(root string) ([]decl, error) {
	var out []decl
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		pkg := module + "/" + filepath.ToSlash(filepath.Dir(path))
		for _, fd := range f.Decls {
			fn, ok := fd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			start := fn.Pos()
			if fn.Doc != nil {
				start = fn.Doc.Pos()
			}
			out = append(out, decl{
				pkg:   pkg,
				key:   funcKey(fn),
				pos:   fset.Position(fn.Pos()),
				lines: fset.Position(fn.End()).Line - fset.Position(start).Line + 1,
			})
		}
		return nil
	})
	return out, err
}

// funcKey is the name a declaration's symbols reduce to under
// symbolKey: "T.M" for a method on T or *T, "F" for a function.
func funcKey(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch generic := t.(type) {
	case *ast.IndexExpr:
		t = generic.X
	case *ast.IndexListExpr:
		t = generic.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}

// textSymbol parses one `go tool nm` line. For a text symbol of one of
// pkgs it returns the package and the symbol's key.
func textSymbol(line string, pkgs map[string]bool) (pkg, key string, ok bool) {
	// "address type name"; an undefined symbol has no address, and the
	// name, unsplit, may hold spaces (generic shapes).
	f := strings.SplitN(strings.TrimSpace(line), " ", 3)
	if len(f) != 3 || (f[1] != "T" && f[1] != "t") {
		return "", "", false
	}
	return symbolKey(f[2], pkgs)
}

// markReached records the declaration a symbol key names. A key
// "F.func1" (closure) or "init.0" names the function F or init; a key
// "T.M" names the method. Both readings are recorded, since a type and a
// function never share a name.
func markReached(reached map[string]bool, pkg, key string) {
	reached[pkg+"."+key] = true
	if first, _, ok := strings.Cut(key, "."); ok {
		reached[pkg+"."+first] = true
	}
}

// symbolKey reduces a linker symbol to the declaration it was compiled
// from. Type arguments ("[go.shape.int]") are dropped, so a generic
// instantiation maps to its generic declaration; "(*T).M" and "T.M"
// both map to "T.M", so a value-receiver method reached only through
// its pointer wrapper still counts; closure ("F.func1"), method-value
// ("M-fm") and init ("init.0") suffixes are kept for the caller to
// trim to the enclosing name.
func symbolKey(name string, pkgs map[string]bool) (pkg, key string, ok bool) {
	// The package path is the longest known prefix followed by a dot; a
	// path cannot be read off the symbol alone, since type arguments may
	// themselves name packages.
	for p := range pkgs {
		if strings.HasPrefix(name, p+".") && len(p) > len(pkg) {
			pkg = p
		}
	}
	if pkg == "" {
		return "", "", false
	}
	var b strings.Builder
	depth := 0
	for _, r := range name[len(pkg)+1:] {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth > 0, r == '(', r == ')', r == '*':
		default:
			b.WriteRune(r)
		}
	}
	parts := strings.Split(b.String(), ".")
	for i, p := range parts {
		parts[i], _, _ = strings.Cut(p, "-")
	}
	if len(parts) > 2 {
		parts = parts[:2]
	}
	return pkg, strings.Join(parts, "."), true
}
