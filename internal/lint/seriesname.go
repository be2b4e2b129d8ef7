package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"strings"
)

// SeriesName governs the obs naming namespace module-wide. Every
// metric, trace-event, and alert-rule name must be a compile-time
// constant (greppable, and present in artifacts exactly as written)
// in the house style:
//
//   - metric names: snake_case ([a-z][a-z0-9_]*), the Prometheus
//     convention the exporter assumes;
//   - trace event/span names: dot-separated snake_case segments
//     ("wan.round", "alert.fire");
//   - alert rule names: snake_case.
//
// Each pass exports every registration site as a module fact; the
// Finish pass then checks the namespace globally: one name must mean
// one series — registering the same name with a different kind
// (Counter vs Gauge) or a different help string anywhere in the
// module is a collision or a typo'd near-duplicate, the class of bug
// that silently splits a series across packages and breaks
// rwc-diff totals. Re-registering an identical (kind, help) pair
// is the normal get-or-create idiom and stays legal.
//
// Registration is the cold path (DESIGN "Observability"): it locks the
// registry, canonicalizes the label set and resolves a history handle.
// A registration written in the same expression —
// x.Gauge(…).Set(…), .Add, .Inc, .Observe — pays that on every write,
// so it is reported; hold the handle, or suppress with the reason the
// site is cold.
//
// The exporter package itself (the exact path internal/obs, whose
// wrappers forward caller-supplied names) and _test.go files (scratch
// registries) are exempt.
var SeriesName = &Analyzer{
	Name: "seriesname",
	Doc: "metric/trace/alert names must be literal snake_case constants and " +
		"mean one series module-wide (no cross-package kind/help conflicts)",
	Run:    runSeriesName,
	Finish: finishSeriesName,
}

var (
	metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	traceNameRE  = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$`)
)

// metricMethods maps obs registration method names to the series kind
// they create.
var metricMethods = map[string]string{
	"Counter":   "counter",
	"Gauge":     "gauge",
	"Histogram": "histogram",
}

// writeMethods are the metric-handle methods that record a value.
var writeMethods = map[string]bool{
	"Set": true, "Add": true, "Inc": true, "Observe": true,
}

// traceMethods are obs methods whose first argument names a trace
// event or span.
var traceMethods = map[string]bool{
	"Event": true, "Begin": true, "Span": true,
}

func runSeriesName(pass *Pass) error {
	if isObsCorePackage(pass.Pkg.Path()) {
		// The registry/tracer implementation forwards caller-supplied
		// names; sites are checked at the callers.
		return nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkRegistrationCall(pass, n)
				checkRegisterPerWrite(pass, n)
			case *ast.CompositeLit:
				checkAlertRuleLit(pass, n)
			}
			return true
		})
	}
	return nil
}

// obsMethod resolves call to the method declared under internal/obs it
// invokes with at least one argument, or nil.
func obsMethod(pass *Pass, call *ast.CallExpr) *types.Func {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || !pathHasSegments(fn.Pkg().Path(), "internal/obs") {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || len(call.Args) == 0 {
		return nil
	}
	return fn
}

// checkRegisterPerWrite reports a write method called directly on a
// registration's result.
func checkRegisterPerWrite(pass *Pass, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !writeMethods[sel.Sel.Name] {
		return
	}
	reg, ok := ast.Unparen(sel.X).(*ast.CallExpr)
	if !ok {
		return
	}
	if fn := obsMethod(pass, reg); fn != nil && metricMethods[fn.Name()] != "" {
		pass.Reportf(reg.Pos(),
			"%s registered and written in one expression: registration is the cold path, so hold the handle and call %s on it (or suppress, saying why this site is cold)",
			metricMethods[fn.Name()], sel.Sel.Name)
	}
}

func checkRegistrationCall(pass *Pass, call *ast.CallExpr) {
	fn := obsMethod(pass, call)
	if fn == nil {
		return
	}
	if kind, ok := metricMethods[fn.Name()]; ok {
		name, lit := constString(pass, call.Args[0])
		if !lit {
			pass.Reportf(call.Args[0].Pos(),
				"metric name passed to %s must be a compile-time constant so the obs namespace is greppable and checkable", fn.Name())
			return
		}
		if !metricNameRE.MatchString(name) {
			pass.Reportf(call.Args[0].Pos(),
				"metric name %q is not snake_case ([a-z][a-z0-9_]*)", name)
			return
		}
		help := ""
		if len(call.Args) > 1 {
			if h, ok := constString(pass, call.Args[1]); ok {
				help = h
			}
		}
		pass.ExportModuleFact("metric", name+"\x00"+kind+"\x00"+help, call.Args[0].Pos())
		return
	}
	if traceMethods[fn.Name()] {
		name, lit := constString(pass, call.Args[0])
		if !lit {
			pass.Reportf(call.Args[0].Pos(),
				"trace event name passed to %s must be a compile-time constant", fn.Name())
			return
		}
		if !traceNameRE.MatchString(name) {
			pass.Reportf(call.Args[0].Pos(),
				"trace event name %q is not dot-separated snake_case", name)
			return
		}
		pass.ExportModuleFact("trace", name+"\x00event\x00", call.Args[0].Pos())
	}
}

// checkAlertRuleLit validates Name fields of alert Rule composite
// literals (type Rule declared under internal/obs).
func checkAlertRuleLit(pass *Pass, lit *ast.CompositeLit) {
	t := pass.Info.TypeOf(lit)
	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	obj := named.Obj()
	if obj.Name() != "Rule" || obj.Pkg() == nil || !pathHasSegments(obj.Pkg().Path(), "internal/obs") {
		return
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || key.Name != "Name" {
			continue
		}
		name, isConst := constString(pass, kv.Value)
		if !isConst {
			pass.Reportf(kv.Value.Pos(), "alert rule name must be a compile-time constant")
			continue
		}
		if !metricNameRE.MatchString(name) {
			pass.Reportf(kv.Value.Pos(), "alert rule name %q is not snake_case", name)
			continue
		}
		pass.ExportModuleFact("alert", name+"\x00rule\x00", kv.Value.Pos())
	}
}

// finishSeriesName checks the collected namespace globally: within
// each namespace (metric/trace/alert), every registration of a name
// must agree with the canonical (first-registered) kind and help.
func finishSeriesName(mp *ModulePass) error {
	type owner struct {
		kind, help, pkg string
	}
	canon := map[string]owner{} // "namespace\x00name" → first registration
	for _, f := range mp.Facts() {
		parts := strings.SplitN(f.Data, "\x00", 3)
		if len(parts) != 3 {
			return fmt.Errorf("seriesname: malformed fact %q", f.Data)
		}
		name, kind, help := parts[0], parts[1], parts[2]
		key := f.Kind + "\x00" + name
		first, seen := canon[key]
		if !seen {
			canon[key] = owner{kind: kind, help: help, pkg: f.Pkg}
			continue
		}
		if first.kind != kind {
			mp.Reportf(f.Pos,
				"%s name %q re-registered as %s; first registered as %s in %s — one name must mean one series module-wide",
				f.Kind, name, kind, first.kind, first.pkg)
			continue
		}
		if f.Kind == "metric" && help != "" && first.help != "" && help != first.help {
			mp.Reportf(f.Pos,
				"metric %q registered with conflicting help text (first registration in %s says %q); align the help strings or rename the series",
				name, first.pkg, truncate(first.help, 60))
		}
	}
	return nil
}

// constString resolves a compile-time constant string expression.
func constString(pass *Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// isObsCorePackage reports whether path is exactly the internal/obs
// package (not a subpackage).
func isObsCorePackage(path string) bool {
	return path == "internal/obs" || strings.HasSuffix(path, "/internal/obs")
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
