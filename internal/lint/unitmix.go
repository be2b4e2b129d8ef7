package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// unit is the coarse physical-unit family carried by a name or type.
type unit int

const (
	unitNone unit = iota
	unitDB        // decibel family: …dB, …dBm, SNRdB, NoiseFiguredB
	unitGbps      // capacity family: …Gbps, modulation.Gbps
)

func (u unit) String() string {
	switch u {
	case unitDB:
		return "dB"
	case unitGbps:
		return "Gbps"
	}
	return "unitless"
}

// UnitMix flags call sites (and conversions) that pass a value
// derived from a *dB-named identifier into a *Gbps-named or
// Gbps-typed parameter, or vice versa. Both families are plain
// float64 almost everywhere, so the compiler cannot catch the swap —
// and a dB fed into the SNR→modulation→capacity translation
// (internal/core, internal/qot, internal/modulation) silently yields
// a plausible-looking but wrong capacity.
var UnitMix = &Analyzer{
	Name: "unitmix",
	Run:  runUnitMix,
}

// nameUnit classifies an identifier by the repository's naming
// convention. Suffix matching keeps compounds like AttenuationdBPerKm
// (a dB/km figure, not a bare dB) out of the dB family.
func nameUnit(name string) unit {
	switch {
	case name == "db", name == "dB",
		strings.HasSuffix(name, "dB"),
		strings.HasSuffix(name, "dBm"),
		strings.HasSuffix(name, "DB"):
		return unitDB
	case name == "gbps",
		strings.HasSuffix(name, "Gbps"):
		return unitGbps
	}
	return unitNone
}

// typeUnit classifies a type: a defined type whose name carries a
// unit (modulation.Gbps) taints every value of that type.
func typeUnit(t types.Type) unit {
	if t == nil {
		return unitNone
	}
	if named, ok := t.(*types.Named); ok {
		return nameUnit(named.Obj().Name())
	}
	return unitNone
}

// exprUnit infers the unit family of an expression from the names it
// is built from. It is deliberately conservative: +/- keep a unit
// (dB values add), * and / change units, and any dB/Gbps conflict
// inside a sub-expression resolves to unitless rather than guessing.
func exprUnit(pass *Pass, e ast.Expr) unit {
	switch e := e.(type) {
	case *ast.Ident:
		if u := nameUnit(e.Name); u != unitNone {
			return u
		}
	case *ast.SelectorExpr:
		if u := nameUnit(e.Sel.Name); u != unitNone {
			return u
		}
	case *ast.ParenExpr:
		return exprUnit(pass, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.ADD || e.Op == token.SUB {
			return exprUnit(pass, e.X)
		}
		return unitNone
	case *ast.BinaryExpr:
		if e.Op != token.ADD && e.Op != token.SUB {
			return unitNone
		}
		ux, uy := exprUnit(pass, e.X), exprUnit(pass, e.Y)
		switch {
		case ux == uy:
			return ux
		case ux == unitNone:
			return uy
		case uy == unitNone:
			return ux
		}
		return unitNone
	case *ast.CallExpr:
		// A call inherits the callee's name suffix: p.OSNRdB(l) is a
		// dB, SNRLinearToDB(x) is a dB, SNRdBToLinear(x) is not.
		switch fun := ast.Unparen(e.Fun).(type) {
		case *ast.Ident:
			if u := nameUnit(fun.Name); u != unitNone {
				return u
			}
		case *ast.SelectorExpr:
			if u := nameUnit(fun.Sel.Name); u != unitNone {
				return u
			}
		}
	}
	if tv, ok := pass.Info.Types[e]; ok {
		return typeUnit(tv.Type)
	}
	return unitNone
}

func runUnitMix(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			tv, ok := pass.Info.Types[call.Fun]
			if !ok {
				return true
			}
			if tv.IsType() {
				checkConversion(pass, call, tv.Type)
				return true
			}
			sig, ok := tv.Type.Underlying().(*types.Signature)
			if !ok {
				return true // builtin or invalid
			}
			checkCall(pass, call, sig)
			return true
		})
	}
	return nil
}

// checkConversion flags Gbps(x) where x is dB-derived (and vice
// versa): the explicit cast is exactly how a unit swap slips past the
// type checker.
func checkConversion(pass *Pass, call *ast.CallExpr, target types.Type) {
	if len(call.Args) != 1 {
		return
	}
	tu := typeUnit(target)
	if tu == unitNone {
		return
	}
	au := exprUnit(pass, call.Args[0])
	if au == unitNone || au == tu {
		return
	}
	pass.Reportf(call.Args[0].Pos(),
		"conversion of %s-derived value %s to %s type %s",
		au, types.ExprString(call.Args[0]), tu, target)
}

func checkCall(pass *Pass, call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	if params.Len() == 0 || call.Ellipsis.IsValid() {
		return
	}
	for i, arg := range call.Args {
		idx := i
		if idx >= params.Len() {
			if !sig.Variadic() {
				return // conversion-like or arity mismatch; typechecker's problem
			}
			idx = params.Len() - 1
		}
		param := params.At(idx)
		ptype := param.Type()
		if sig.Variadic() && idx == params.Len()-1 {
			if slice, ok := ptype.(*types.Slice); ok {
				ptype = slice.Elem()
			}
		}
		pu := nameUnit(param.Name())
		if pu == unitNone {
			pu = typeUnit(ptype)
		}
		if pu == unitNone {
			continue
		}
		au := exprUnit(pass, arg)
		if au == unitNone || au == pu {
			continue
		}
		pass.Reportf(arg.Pos(),
			"passing %s-derived value %s into %s parameter %q of %s",
			au, types.ExprString(arg), pu, param.Name(), types.ExprString(call.Fun))
	}
}
