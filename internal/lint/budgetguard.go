package lint

import (
	"go/ast"
)

// budgetPool is the package that owns the shared worker budget. Its
// Ranges is the one goroutine launch the determinism-critical packages
// may reach, so budgetguard exempts it by path rather than by directive.
const budgetPool = "repro/internal/sweep"

// Budgetguard flags raw goroutine launches in kernel/pipeline packages.
// Fan-out that bypasses the internal/sweep worker budget multiplies under
// nesting (the P² oversubscription class PR 2 fixed): a budgeted sweep cell
// that itself spawns unbudgeted goroutines runs budget² goroutines.
var Budgetguard = &Analyzer{
	Name: "budgetguard",
	Doc: `flag raw go-statement launches that bypass the internal/sweep worker budget

Determinism-critical compute packages must fan out through sweep.Map or
sweep.Ranges, which take their workers from the shared budget, so total
concurrency stays at ~budget instead of budget². repro/internal/sweep is
the pool itself and is exempt: sweep.Ranges holds the one go statement
the rule allows.`,
	Run: runBudgetguard,
}

func runBudgetguard(pass *Pass) error {
	if !DeterminismCritical(pass.PkgPath) || pass.PkgPath == budgetPool {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			pass.Reportf(gs.Pos(),
				"raw goroutine launch in budget-governed package %s: fan out through sweep.Map or sweep.Ranges, whose workers hold tokens of the shared worker budget",
				pass.PkgPath)
			return true
		})
	}
	return nil
}
