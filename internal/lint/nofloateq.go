package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// NoFloatEq flags direct == / != between float operands in non-test
// code. SNR, capacity, and flow values accumulate rounding; exact
// comparison silently turns "equal capacity" into "bit-identical
// float", which is how a 50 Gbps upgrade decision flips between runs.
// Use the tolerance helpers in repro/internal/stats instead
// (stats.ApproxEqual for relative, stats.ApproxInDelta for absolute).
//
// Two escapes are deliberate: comparison against an exact constant
// zero (zero is the universal "unset/empty" sentinel and exact in
// IEEE 754), and _test.go files (the determinism the suite enforces
// is precisely what makes exact golden values meaningful in tests).
var NoFloatEq = &Analyzer{
	Name: "nofloateq",
	Run:  runNoFloatEq,
}

func runNoFloatEq(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
				return true
			}
			if !isFloatOperand(pass, bin.X) || !isFloatOperand(pass, bin.Y) {
				return true
			}
			if isZeroConstant(pass, bin.X) || isZeroConstant(pass, bin.Y) {
				return true
			}
			if pass.InTestFile(bin.Pos()) {
				return true
			}
			helper := "stats.ApproxEqual"
			if bin.Op == token.NEQ {
				helper = "!stats.ApproxEqual"
			}
			pass.Reportf(bin.OpPos,
				"float %s comparison; use %s (or stats.ApproxInDelta) from repro/internal/stats",
				bin.Op, helper)
			return true
		})
	}
	return nil
}

func isFloatOperand(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}

func isZeroConstant(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	v := constant.ToFloat(tv.Value)
	if v.Kind() != constant.Float {
		return false
	}
	f, _ := constant.Float64Val(v)
	return f == 0 //nolint:nofloateq // the one place exact zero is the question
}
