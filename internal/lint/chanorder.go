package lint

import (
	"go/ast"
	"go/types"
)

// ChanOrder flags channel-ordered data feeding artifact sinks. Two
// shapes are nondeterministic by construction:
//
//   - a select with two or more communication cases: when several
//     channels are ready the runtime picks uniformly at random, so a
//     sink call in any case body emits in scheduler order;
//   - draining a channel (for v := range ch, the fan-in shape)
//     straight into a sink: arrival order across producer goroutines
//     is a race outcome.
//
// The sanctioned pattern is internal/par's index-ordered reassembly:
// tag each item with its task index, store into out[i], and render
// after the join — or use par.Stream, whose consume callback already
// runs in strict index order. Case bodies that only store into
// indexed slots are therefore clean. Test files are exempt.
var ChanOrder = &Analyzer{
	Name: "chanorder",
	Run:  runChanOrder,
}

func runChanOrder(pass *Pass) error {
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectStmt:
				checkSelect(pass, n)
			case *ast.RangeStmt:
				if _, ok := typeUnder(pass.Info.TypeOf(n.X)).(*types.Chan); ok {
					reportSinks(pass, n.Body,
						"inside channel fan-in (range over channel): arrival order across producers is nondeterministic; reassemble in task-index order (internal/par) before writing")
				}
			}
			return true
		})
	}
	return nil
}

func checkSelect(pass *Pass, sel *ast.SelectStmt) {
	comm := 0
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
			comm++
		}
	}
	if comm < 2 {
		return
	}
	for _, c := range sel.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		for _, s := range cc.Body {
			reportSinksStmt(pass, s,
				"inside a select with multiple ready channels: case choice is randomized; buffer and emit in deterministic order instead")
		}
	}
}

func reportSinks(pass *Pass, body *ast.BlockStmt, context string) {
	for _, s := range body.List {
		reportSinksStmt(pass, s, context)
	}
}

// reportSinksStmt flags direct artifact-sink calls in a statement
// tree, without descending into nested function literals (those run
// on their own schedule) or nested selects (reported separately).
func reportSinksStmt(pass *Pass, stmt ast.Stmt, context string) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.SelectStmt:
			return false
		case *ast.CallExpr:
			if sink, ok := artifactSink(pass, n); ok {
				pass.Reportf(n.Pos(), "%s %s", sink, context)
			}
		}
		return true
	})
}
