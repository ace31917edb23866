package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"pmemsched/internal/analysis"
)

type testFact struct {
	Note string `json:"note"`
}

func (*testFact) AFact() {}

func checkSrc(t *testing.T, src string) *analysis.Unit {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	pkg, err := (&types.Config{}).Check("fixture/a", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return &analysis.Unit{Fset: fset, Files: []*ast.File{f}, Pkg: pkg, Info: info}
}

const factSrc = `package a

type T struct{}

func (T) M() float64 { return 0 }

func F() {}

func hidden() {}
`

// TestFactRoundTrip exercises the vetx serialization path: facts on
// path-expressible objects (package-level exported, exported methods)
// survive EncodeFacts/DecodeFacts; facts on unexported objects stay
// process-local.
func TestFactRoundTrip(t *testing.T) {
	unit := checkSrc(t, factSrc)
	scope := unit.Pkg.Scope()
	objF := scope.Lookup("F")
	objHidden := scope.Lookup("hidden")
	objM, _, _ := types.LookupFieldOrMethod(scope.Lookup("T").Type(), true, unit.Pkg, "M")
	if objF == nil || objHidden == nil || objM == nil {
		t.Fatal("fixture objects missing")
	}

	az := &analysis.Analyzer{
		Name:      "factcheck",
		Doc:       "test analyzer",
		FactTypes: []analysis.Fact{(*testFact)(nil)},
		Run: func(p *analysis.Pass) error {
			p.ExportObjectFact(objF, &testFact{Note: "on F"})
			p.ExportObjectFact(objM, &testFact{Note: "on T.M"})
			p.ExportObjectFact(objHidden, &testFact{Note: "on hidden"})
			return nil
		},
	}
	session := analysis.NewSession()
	if _, err := session.Run(unit, []*analysis.Analyzer{az}); err != nil {
		t.Fatal(err)
	}

	data, err := session.EncodeFacts(unit.Pkg, []*analysis.Analyzer{az})
	if err != nil {
		t.Fatal(err)
	}
	wire := string(data)
	for _, want := range []string{`"F"`, `"T.M"`} {
		if !strings.Contains(wire, want) {
			t.Errorf("encoded facts missing %s: %s", want, wire)
		}
	}
	if strings.Contains(wire, "hidden") {
		t.Errorf("unexported object leaked into encoded facts: %s", wire)
	}

	// Decode into a fresh session and observe the facts through a
	// second pass over the same package.
	fresh := analysis.NewSession()
	if err := fresh.DecodeFacts(unit.Pkg, []*analysis.Analyzer{az}, data); err != nil {
		t.Fatal(err)
	}
	var got [2]bool
	check := &analysis.Analyzer{
		Name:      "factcheck",
		Doc:       "test analyzer",
		FactTypes: []analysis.Fact{(*testFact)(nil)},
		Run: func(p *analysis.Pass) error {
			var f testFact
			got[0] = p.ImportObjectFact(objF, &f) && f.Note == "on F"
			got[1] = p.ImportObjectFact(objM, &f) && f.Note == "on T.M"
			if p.ImportObjectFact(objHidden, &f) {
				t.Error("fact on unexported object should not survive serialization")
			}
			return nil
		},
	}
	if _, err := fresh.Run(unit, []*analysis.Analyzer{check}); err != nil {
		t.Fatal(err)
	}
	for i, ok := range got {
		if !ok {
			t.Errorf("decoded fact %d not observed", i)
		}
	}
}

// TestFactSameSession checks the in-process path: a fact exported
// during one unit's pass is visible to a later pass in the same
// session without serialization, and absent from a fresh session.
func TestFactSameSession(t *testing.T) {
	unit := checkSrc(t, factSrc)
	objHidden := unit.Pkg.Scope().Lookup("hidden")

	az := &analysis.Analyzer{
		Name:      "factcheck",
		Doc:       "test analyzer",
		FactTypes: []analysis.Fact{(*testFact)(nil)},
		Run: func(p *analysis.Pass) error {
			var f testFact
			if !p.ImportObjectFact(objHidden, &f) {
				p.ExportObjectFact(objHidden, &testFact{Note: "local"})
				return nil
			}
			if f.Note != "local" {
				t.Errorf("fact note = %q, want %q", f.Note, "local")
			}
			return nil
		},
	}
	session := analysis.NewSession()
	for i := 0; i < 2; i++ {
		if _, err := session.Run(unit, []*analysis.Analyzer{az}); err != nil {
			t.Fatal(err)
		}
	}
	var f testFact
	probe := &analysis.Analyzer{
		Name:      "factcheck",
		Doc:       "test analyzer",
		FactTypes: []analysis.Fact{(*testFact)(nil)},
		Run: func(p *analysis.Pass) error {
			if p.ImportObjectFact(objHidden, &f) {
				t.Error("fresh session should not see facts from another session")
			}
			return nil
		},
	}
	if _, err := analysis.NewSession().Run(unit, []*analysis.Analyzer{probe}); err != nil {
		t.Fatal(err)
	}
}
