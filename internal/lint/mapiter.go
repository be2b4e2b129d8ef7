package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// MapIter is the determinism-taint analyzer. Go map iteration order
// is deliberately randomized, so any value whose *order* derives from
// `range` over a map must pass through an explicit sort before it
// reaches an artifact sink (prints, io writes, obs registry/tracer
// writes, flight frames) — otherwise two same-seed runs emit
// different bytes and the replay/bisect/audit chain (PRs 2–5)
// breaks at the source.
//
// The analysis is a forward taint pass over each function body in
// statement order:
//
//   - source: `for k, v := range m` where m is map-typed. Sink calls
//     lexically inside the body are flagged directly; slices built
//     inside the body (append, or indexed stores of the loop vars)
//     become map-ordered.
//   - sanitizer: sort.* / slices.Sort* applied to a map-ordered
//     value clears its taint.
//   - sink: an artifactSink call with a map-ordered argument, or any
//     sink inside a range over a map-ordered slice.
//
// It is interprocedural via facts: a function returning a map-ordered
// slice exports a "returns" fact (per result index), and calls to it
// — from this package or, through the committed fact store, from any
// importing package — are taint sources at the call site. In-package
// propagation iterates to a fixpoint first, so helper order within a
// file does not matter.
var MapIter = &Analyzer{
	Name: "mapiter",
	Run:  runMapIter,
}

const mapIterReturnsFact = "returns"

func runMapIter(pass *Pass) error {
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}

	// Fixpoint over same-package return-taint: a helper may feed a
	// helper, so re-run until the local fact set stops growing.
	local := map[*types.Func]string{}
	for round := 0; round < len(decls)+1; round++ {
		grew := false
		for fn, fd := range decls {
			if _, done := local[fn]; done {
				continue
			}
			w := &mapIterWalker{pass: pass, local: local, report: false}
			w.walkBody(fd.Body)
			if len(w.taintedResults) > 0 {
				local[fn] = encodeResultSet(w.taintedResults)
				grew = true
			}
		}
		if !grew {
			break
		}
	}
	for fn, data := range local {
		pass.ExportObjectFact(fn, mapIterReturnsFact, data)
	}

	// Reporting pass, now with complete local + imported facts.
	for _, fd := range decls {
		w := &mapIterWalker{pass: pass, local: local, report: true}
		w.walkBody(fd.Body)
	}
	return nil
}

// encodeResultSet renders a set of result indices as "0,2".
func encodeResultSet(set map[int]bool) string {
	idx := make([]int, 0, len(set))
	for i := range set {
		idx = append(idx, i)
	}
	for i := 0; i < len(idx); i++ { // insertion sort; sets are tiny
		for j := i; j > 0 && idx[j] < idx[j-1]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	parts := make([]string, len(idx))
	for i, v := range idx {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

func decodeResultSet(data string, i int) bool {
	for _, p := range strings.Split(data, ",") {
		if p == strconv.Itoa(i) {
			return true
		}
	}
	return false
}

// mapIterWalker carries the per-function taint state. Taint is a set
// of objects (variables) whose element order derives from map
// iteration; control flow is approximated by walking statements in
// source order and never clearing taint at branch merges (only sorts
// clear taint), which is conservative but precise enough in practice.
type mapIterWalker struct {
	pass   *Pass
	local  map[*types.Func]string
	report bool

	tainted        map[types.Object]bool
	taintedResults map[int]bool
}

func (w *mapIterWalker) taint(obj types.Object) {
	if obj == nil {
		return
	}
	if w.tainted == nil {
		w.tainted = map[types.Object]bool{}
	}
	w.tainted[obj] = true
}

func (w *mapIterWalker) untaint(obj types.Object) {
	if obj != nil && w.tainted != nil {
		delete(w.tainted, obj)
	}
}

func (w *mapIterWalker) walkBody(body *ast.BlockStmt) {
	for _, s := range body.List {
		w.stmt(s)
	}
}

func (w *mapIterWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.walkBody(s)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.stmt(s.Body)
		if s.Else != nil {
			w.stmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.stmt(s.Body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, cs := range cc.Body {
					w.stmt(cs)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, cs := range cc.Body {
					w.stmt(cs)
				}
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				for _, cs := range cc.Body {
					w.stmt(cs)
				}
			}
		}
	case *ast.RangeStmt:
		w.rangeStmt(s)
	case *ast.AssignStmt:
		w.assign(s)
	case *ast.ExprStmt:
		w.exprStmt(s.X)
	case *ast.DeferStmt:
		w.sinkCheck(s.Call)
		w.sortCheck(s.Call)
	case *ast.GoStmt:
		w.sinkCheck(s.Call)
	case *ast.ReturnStmt:
		for i, res := range s.Results {
			if w.exprTainted(res) {
				if w.taintedResults == nil {
					w.taintedResults = map[int]bool{}
				}
				w.taintedResults[i] = true
			}
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) && w.exprTainted(vs.Values[i]) {
						w.taint(w.pass.Info.Defs[name])
					}
				}
			}
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	}
}

// rangeStmt handles the two taint sources: range over a map, and
// range over an already-tainted (map-ordered) value.
func (w *mapIterWalker) rangeStmt(s *ast.RangeStmt) {
	t := w.pass.Info.TypeOf(s.X)
	_, overMap := typeUnder(t).(*types.Map)
	ordered := overMap || w.exprTainted(s.X)
	if !ordered {
		w.stmt(s.Body)
		return
	}
	src := "range over map"
	if !overMap {
		src = "range over map-ordered value"
	}
	loopVars := map[types.Object]bool{}
	for _, e := range []ast.Expr{s.Key, s.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := w.pass.Info.Defs[id]; obj != nil {
				loopVars[obj] = true
			} else if obj := w.pass.Info.Uses[id]; obj != nil {
				loopVars[obj] = true
			}
		}
	}
	w.rangeBody(s.Body, src, loopVars)
}

// rangeBody walks an order-tainted loop body: sinks are flagged,
// values accumulated from the body become tainted.
func (w *mapIterWalker) rangeBody(body *ast.BlockStmt, src string, loopVars map[types.Object]bool) {
	for _, s := range body.List {
		switch s := s.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if sink, ok := artifactSink(w.pass, call); ok {
					w.reportf(call.Pos(),
						"%s inside %s: iteration order is nondeterministic; collect into a slice and sort before writing the artifact",
						sink, src)
					continue
				}
			}
			w.exprStmt(s.X)
		case *ast.AssignStmt:
			w.loopAssign(s, loopVars)
		case *ast.BlockStmt:
			w.rangeBody(s, src, loopVars)
		case *ast.IfStmt:
			w.rangeBody(s.Body, src, loopVars)
			if els, ok := s.Else.(*ast.BlockStmt); ok {
				w.rangeBody(els, src, loopVars)
			}
		case *ast.RangeStmt:
			// A nested range inherits the ordered context: its body is
			// still executed in outer-map order.
			w.rangeBody(s.Body, src, loopVars)
		case *ast.ForStmt:
			w.rangeBody(s.Body, src, loopVars)
		default:
			w.stmt(s)
		}
	}
}

// loopAssign processes an assignment inside an order-tainted loop:
// appends and indexed stores leak the iteration order into the
// target; everything else falls through to the normal rules.
func (w *mapIterWalker) loopAssign(s *ast.AssignStmt, loopVars map[types.Object]bool) {
	for i, rhs := range s.Rhs {
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isAppend(w.pass, call) {
			if i < len(s.Lhs) {
				w.taint(w.rootObj(s.Lhs[i]))
			}
			continue
		}
	}
	// keys[i] = k inside the loop: the slice records iteration order.
	for _, lhs := range s.Lhs {
		idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
		if !ok {
			continue
		}
		if _, isSlice := typeUnder(w.pass.Info.TypeOf(idx.X)).(*types.Slice); !isSlice {
			continue
		}
		if exprMentions(w.pass, s.Rhs, loopVars) || exprMentions(w.pass, []ast.Expr{idx.Index}, loopVars) {
			w.taint(w.rootObj(idx.X))
		}
	}
	w.assign(s)
}

func (w *mapIterWalker) assign(s *ast.AssignStmt) {
	if len(s.Lhs) == len(s.Rhs) {
		for i := range s.Lhs {
			obj := w.rootObj(s.Lhs[i])
			if obj == nil {
				continue
			}
			if w.exprTainted(s.Rhs[i]) {
				w.taint(obj)
			} else if _, isIndex := ast.Unparen(s.Lhs[i]).(*ast.IndexExpr); !isIndex {
				// Whole-variable overwrite with clean data clears taint;
				// an element store does not.
				w.untaint(obj)
			}
		}
		return
	}
	// Multi-value RHS (call, map lookup): be conservative.
	anyTainted := false
	for _, rhs := range s.Rhs {
		if w.exprTainted(rhs) {
			anyTainted = true
		}
	}
	if anyTainted {
		for _, lhs := range s.Lhs {
			w.taint(w.rootObj(lhs))
		}
	}
}

func (w *mapIterWalker) exprStmt(e ast.Expr) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	if w.sortCheck(call) {
		return
	}
	w.sinkCheck(call)
}

// sortCheck clears taint when call is a recognized sort applied to a
// tainted value. It reports true if call was a sort.
func (w *mapIterWalker) sortCheck(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkgName, ok := w.pass.Info.Uses[ident].(*types.PkgName)
	if !ok {
		return false
	}
	switch pkgName.Imported().Path() {
	case "sort":
		switch sel.Sel.Name {
		case "Sort", "Stable", "Strings", "Ints", "Float64s", "Slice", "SliceStable":
		default:
			return false
		}
	case "slices":
		switch sel.Sel.Name {
		case "Sort", "SortFunc", "SortStableFunc":
		default:
			return false
		}
	default:
		return false
	}
	if len(call.Args) > 0 {
		w.untaint(w.rootObj(call.Args[0]))
	}
	return true
}

// sinkCheck reports a diagnostic when a tainted value is passed to an
// artifact sink.
func (w *mapIterWalker) sinkCheck(call *ast.CallExpr) {
	sink, ok := artifactSink(w.pass, call)
	if !ok {
		return
	}
	for _, arg := range call.Args {
		if w.exprTainted(arg) {
			w.reportf(arg.Pos(),
				"map-ordered value reaches %s without an intervening sort; same-seed runs will emit different bytes",
				sink)
			return
		}
	}
}

// exprTainted reports whether e evaluates to a map-ordered value.
func (w *mapIterWalker) exprTainted(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := w.pass.Info.Uses[e]
		if obj == nil {
			obj = w.pass.Info.Defs[e]
		}
		return w.tainted[obj]
	case *ast.IndexExpr:
		return w.exprTainted(e.X)
	case *ast.SliceExpr:
		return w.exprTainted(e.X)
	case *ast.CallExpr:
		if isAppend(w.pass, e) {
			for _, a := range e.Args {
				if w.exprTainted(a) {
					return true
				}
			}
			return false
		}
		if isConversion(w.pass, e) && len(e.Args) == 1 {
			return w.exprTainted(e.Args[0])
		}
		return w.callReturnsTainted(e)
	case *ast.UnaryExpr:
		return w.exprTainted(e.X)
	}
	return false
}

// callReturnsTainted consults the taint facts — local fixpoint
// results for this package, the committed store for imports — for
// the called function's first result.
func (w *mapIterWalker) callReturnsTainted(call *ast.CallExpr) bool {
	fn := calleeFunc(w.pass, call)
	if fn == nil {
		return false
	}
	if data, ok := w.local[fn]; ok {
		return decodeResultSet(data, 0)
	}
	if data, ok := w.pass.ObjectFact(fn, mapIterReturnsFact); ok {
		return decodeResultSet(data, 0)
	}
	return false
}

func (w *mapIterWalker) rootObj(e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := w.pass.Info.Uses[x]; obj != nil {
				return obj
			}
			return w.pass.Info.Defs[x]
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.CallExpr:
			if isConversion(w.pass, x) && len(x.Args) == 1 {
				e = x.Args[0]
				continue
			}
			return nil
		case *ast.SelectorExpr:
			// x.f: track the selected field/var object itself.
			if obj := w.pass.Info.Uses[x.Sel]; obj != nil {
				return obj
			}
			return nil
		default:
			return nil
		}
	}
}

func (w *mapIterWalker) reportf(pos token.Pos, format string, args ...any) {
	if w.report {
		w.pass.Reportf(pos, format, args...)
	}
}

// typeUnder is types.Type.Underlying tolerant of nil.
func typeUnder(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

// isAppend reports whether call is the append builtin.
func isAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// isConversion reports whether call is a type conversion T(x).
func isConversion(pass *Pass, call *ast.CallExpr) bool {
	tv, ok := pass.Info.Types[call.Fun]
	return ok && tv.IsType()
}

// calleeFunc resolves the *types.Func a call invokes, or nil for
// indirect calls, builtins, and conversions.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// exprMentions reports whether any expression references one of the
// given objects.
func exprMentions(pass *Pass, exprs []ast.Expr, objs map[types.Object]bool) bool {
	found := false
	for _, e := range exprs {
		ast.Inspect(e, func(n ast.Node) bool {
			if found {
				return false
			}
			if id, ok := n.(*ast.Ident); ok {
				if obj := pass.Info.Uses[id]; obj != nil && objs[obj] {
					found = true
				}
			}
			return true
		})
	}
	return found
}
