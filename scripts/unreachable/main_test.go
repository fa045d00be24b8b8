package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestSymbolMapsToDeclaration checks that each symbol form the linker
// emits for a declaration — generic instantiations, pointer wrappers of
// value-receiver methods, closures, method values, numbered inits —
// marks that declaration reached, so none is reported as unreachable.
func TestSymbolMapsToDeclaration(t *testing.T) {
	const src = `package sim
func F() {}
func init() {}
type T struct{}
func (T) Val() {}
func (*T) Ptr() {}
type Thunks[K comparable, V any] struct{}
func (t *Thunks[K, V]) Bind() {}
func (t Thunks[K, V]) Get() {}
func Map[E any]() {}
`
	f, err := parser.ParseFile(token.NewFileSet(), "sim.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	const pkg = "coregap/internal/sim"
	pkgs := map[string]bool{pkg: true, pkg + "/sub": true, "coregap/internal/hw": true}
	for _, tc := range []struct{ sym, decl string }{
		{"F", "F"},
		{"F.func1", "F"},
		{"init.0", "init"},
		{"T.Val", "T.Val"},
		{"(*T).Val", "T.Val"},
		{"(*T).Ptr", "T.Ptr"},
		{"(*T).Ptr-fm", "T.Ptr"},
		{"(*Thunks[go.shape.int,go.shape.*uint8]).Bind", "Thunks.Bind"},
		{"(*Thunks[go.shape.struct { coregap/internal/hw.x int },go.shape.[]coregap/internal/sim/sub.E]).Bind.func2", "Thunks.Bind"},
		{"Thunks[go.shape.int,go.shape.string].Get", "Thunks.Get"},
		{"(*Thunks[go.shape.int,go.shape.string]).Get", "Thunks.Get"},
		{"Map[go.shape.interface {}]", "Map"},
	} {
		gotPkg, key, ok := symbolKey(pkg+"."+tc.sym, pkgs)
		if !ok || gotPkg != pkg {
			t.Errorf("symbolKey(%q): package %q, ok %v", tc.sym, gotPkg, ok)
			continue
		}
		reached := map[string]bool{}
		markReached(reached, gotPkg, key)
		if !reached[pkg+"."+tc.decl] {
			t.Errorf("symbol %q (key %q) does not reach %q", tc.sym, key, tc.decl)
		}
	}
	want := []string{"F", "init", "T.Val", "T.Ptr", "Thunks.Bind", "Thunks.Get", "Map"}
	var got []string
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok {
			got = append(got, funcKey(fn))
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("funcKey over the declarations = %q, want %q", got, want)
	}
	if _, _, ok := symbolKey("coregap/internal/simx.F", pkgs); ok {
		t.Error("symbolKey matched a package by a non-path prefix")
	}
	if p, _, _ := symbolKey(pkg+"/sub.F", pkgs); p != pkg+"/sub" {
		t.Errorf("symbolKey chose package %q for a subpackage symbol", p)
	}
}

func TestTextSymbol(t *testing.T) {
	pkgs := map[string]bool{"coregap/internal/sim": true}
	for _, tc := range []struct {
		line, key string
		ok        bool
	}{
		{"  4a1b20 T coregap/internal/sim.(*Thunks[go.shape.struct { a int }]).Bind", "Thunks.Bind", true},
		{"  4a1b20 t coregap/internal/sim.Engine.Now", "Engine.Now", true},
		{"  5c0000 R coregap/internal/sim..dict.Thunks[int]", "", false},
		{"         U coregap/internal/sim.F", "", false},
		{"  4a1b20 T runtime.main", "", false},
	} {
		_, key, ok := textSymbol(tc.line, pkgs)
		if ok != tc.ok || key != tc.key {
			t.Errorf("textSymbol(%q) = %q, %v; want %q, %v", tc.line, key, ok, tc.key, tc.ok)
		}
	}
}

// TestGate covers the allowlist's three outcomes on one scan: a dead
// function missing from the list fails, a list line naming a reached or
// undeclared function fails, and a listed dead function passes.
func TestGate(t *testing.T) {
	const pkg = module + "/internal/sim"
	decls := []decl{
		{pkg: pkg, key: "Live"},
		{pkg: pkg, key: "Engine.Kept"},
		{pkg: pkg, key: "Engine.Dead", pos: token.Position{Filename: "internal/sim/sim.go", Line: 3}},
	}
	reached := map[string]bool{pkg + ".Live": true}
	for _, tc := range []struct {
		name  string
		allow map[string]string
		want  []string
	}{
		{"listed dead passes", map[string]string{"sim.Engine.Kept": "accessor", "sim.Engine.Dead": "knob"}, nil},
		{"unlisted dead fails", map[string]string{"sim.Engine.Kept": "accessor"},
			[]string{"internal/sim/sim.go:3: sim.Engine.Dead is reached by no binary and not listed"}},
		{"stale lines fail", map[string]string{"sim.Engine.Kept": "accessor", "sim.Engine.Dead": "knob",
			"sim.Live": "api", "sim.Gone": "reference"},
			[]string{"sim.Live is listed but now reached", "sim.Gone is listed but not declared"}},
	} {
		if got := gate(decls, reached, tc.allow); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: gate = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestParseAllow(t *testing.T) {
	allow, err := parseAllow("# header\n\nsim.Engine.Kept   accessor\nexp.RunFig6 api # typed wrapper\n")
	if err != nil || len(allow) != 2 || allow["sim.Engine.Kept"] != "accessor" || allow["exp.RunFig6"] != "api" {
		t.Errorf("parseAllow = %v, %v", allow, err)
	}
	for _, bad := range []string{"sim.F\n", "sim.F unused\n", "sim.F api extra\n", "sim.F api\nsim.F accessor\n"} {
		if _, err := parseAllow(bad); err == nil {
			t.Errorf("parseAllow(%q) accepted", bad)
		}
	}
}
