// Package wallclock defines an analyzer that keeps wall-clock time and
// ambient randomness out of the deterministic simulation kernel. The
// simulator's contract (DESIGN.md, PR 1) is that equal inputs produce
// byte-identical Results; a single time.Now or global rand call breaks
// both the result cache and every reproducibility test.
package wallclock

import (
	"go/ast"
	"go/types"
	"regexp"

	"pmemsched/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "wallclock",
	Doc: `forbid wall-clock reads and unseeded randomness in kernel packages

Inside internal/sim, internal/core, internal/pmem, internal/workflow,
internal/cluster, internal/experiments and cmd/wfsched,
calls to time.Now/Since/Until and to package-level math/rand functions
(which draw from the process-global, randomly-seeded source) make
results depend on when and where the process runs. Thread an explicit
*rand.Rand built with rand.New(rand.NewSource(seed)) instead, as
faultinject and stacktest do; constructors such as rand.New and
rand.NewSource are therefore allowed.`,
	Run: run,
}

// scopeRE matches the deterministic kernel: the fluid simulator, the
// run engine, the device model, the workflow compiler, the cluster
// scheduler (whose virtual clock must never touch the real one), the
// experiment harness whose reports must be byte-reproducible, and the
// wfsched CLI, which drives cluster simulations whose outputs are
// golden-checked. The other commands are deliberately out of scope:
// cmd/schedload's whole point is measuring wall time around the
// deterministic engine and daemon.
var scopeRE = regexp.MustCompile(`internal/(sim|core|pmem|workflow|cluster|experiments)$|(^|/)cmd/wfsched$`)

// bannedTime are the time-package functions that read the wall clock.
var bannedTime = map[string]bool{"Now": true, "Since": true, "Until": true}

// allowedRand are the math/rand (and rand/v2) package-level functions
// that construct explicitly-seeded generators rather than drawing from
// the global source.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	if !scopeRE.MatchString(pass.PkgPath) {
		return nil
	}
	pass.Preorder(func(n ast.Node) {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return
		}
		pkgIdent, ok := sel.X.(*ast.Ident)
		if !ok {
			return
		}
		pkgName, ok := pass.TypesInfo.Uses[pkgIdent].(*types.PkgName)
		if !ok {
			return
		}
		switch pkgName.Imported().Path() {
		case "time":
			if bannedTime[sel.Sel.Name] {
				pass.Reportf(sel.Pos(), "time.%s reads the wall clock inside the deterministic kernel; take time from the simulation clock or inject it, or annotate with //pmemlint:ignore wallclock <reason>", sel.Sel.Name)
			}
		case "math/rand", "math/rand/v2":
			// Referencing a type (*rand.Rand, rand.Source) is how the
			// injected-generator pattern is written — only calls to
			// package-level functions draw on the global source.
			if _, isFunc := pass.TypesInfo.Uses[sel.Sel].(*types.Func); !isFunc {
				return
			}
			if !allowedRand[sel.Sel.Name] {
				pass.Reportf(sel.Pos(), "rand.%s draws from the global, unseeded source inside the deterministic kernel; inject a *rand.Rand built with rand.New(rand.NewSource(seed)), or annotate with //pmemlint:ignore wallclock <reason>", sel.Sel.Name)
			}
		}
	})
	return nil
}
