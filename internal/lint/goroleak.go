package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroLeak requires every `go` statement to have a visible join or
// shutdown path. A fire-and-forget goroutine outlives the run it was
// spawned for: it races artifact writers during shutdown, keeps
// sockets alive after -linger, and is exactly the class of bug the
// SSE subscriber path hardened against. Accepted evidence, checked in
// the spawned function's body (a literal, or a same-package
// function/method):
//
//   - it calls Done() on a sync.WaitGroup (typically deferred), or
//     the spawn site is preceded by Add() on a sync.WaitGroup in the
//     same enclosing function;
//   - it receives from a channel (<-ch, for range ch, a select with
//     a receive, <-ctx.Done()): a quit/cancellation signal can reach
//     it;
//   - it blocks in a long-lived call on a variable — a struct field
//     (s.srv.Serve) or a local (srv.Serve) — for which the same
//     package calls Close or Shutdown on that variable elsewhere (the
//     HTTP-server shape, whether the server lives in a struct or on
//     the stack of main).
//
// Anything else is flagged. Bounded fan-out belongs on internal/par,
// which joins workers deterministically. Test files are exempt: the
// test binary's lifetime bounds their goroutines, and helpers like
// httptest manage their own.
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Run:  runGoroLeak,
}

func runGoroLeak(pass *Pass) error {
	// Package-wide context: function declarations (to resolve `go
	// s.handle(conn)` bodies) and the set of variables (struct fields
	// or locals) on which some function calls Close/Shutdown.
	decls := map[*types.Func]*ast.FuncDecl{}
	closedVars := map[types.Object]bool{}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "Close" && sel.Sel.Name != "Shutdown") {
					return true
				}
				if obj := selectorBase(pass, sel.X); obj != nil {
					closedVars[obj] = true
				}
				return true
			})
		}
	}

	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if goStmtJoined(pass, fd, g, decls, closedVars) {
					return true
				}
				pass.Reportf(g.Pos(),
					"goroutine has no reachable join/shutdown path (no WaitGroup Add/Done, quit-channel receive, or Close/Shutdown-managed variable); fire-and-forget goroutines outlive the run — join it or use internal/par")
				return true
			})
		}
	}
	return nil
}

func goStmtJoined(pass *Pass, enclosing *ast.FuncDecl, g *ast.GoStmt, decls map[*types.Func]*ast.FuncDecl, closedVars map[types.Object]bool) bool {
	// Evidence at the spawn site: a WaitGroup.Add before the go
	// statement anywhere in the enclosing function.
	addBefore := false
	ast.Inspect(enclosing.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= g.Pos() {
			return true
		}
		if isWaitGroupMethod(pass, call, "Add") {
			addBefore = true
		}
		return true
	})
	if addBefore {
		return true
	}
	body := goroutineBody(pass, g.Call, decls)
	if body == nil {
		// Callee body invisible (other package, indirect call): no
		// evidence — flag it.
		return false
	}
	joined := false
	ast.Inspect(body, func(n ast.Node) bool {
		if joined {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isWaitGroupMethod(pass, n, "Done") {
				joined = true
			}
			// Blocking on a Close/Shutdown-managed variable: go func() {
			// s.srv.Serve(ln) }() with s.srv.Close() elsewhere, or the
			// local-variable shape with a deferred srv.Close().
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if obj := selectorBase(pass, sel.X); obj != nil && closedVars[obj] {
					joined = true
				}
			}
		case *ast.UnaryExpr:
			// Any channel receive doubles as a shutdown signal path
			// (<-quit, <-ctx.Done()).
			if n.Op == token.ARROW {
				joined = true
			}
		case *ast.RangeStmt:
			if _, ok := typeUnder(pass.Info.TypeOf(n.X)).(*types.Chan); ok {
				joined = true
			}
		}
		return true
	})
	return joined
}

// goroutineBody resolves the spawned function's body: a func literal
// inline, or a same-package function/method declaration.
func goroutineBody(pass *Pass, call *ast.CallExpr, decls map[*types.Func]*ast.FuncDecl) *ast.BlockStmt {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return lit.Body
	}
	if fn := calleeFunc(pass, call); fn != nil {
		if fd, ok := decls[fn]; ok {
			return fd.Body
		}
	}
	return nil
}

// selectorBase resolves the variable a method is called on: the field
// object for s.srv.Serve, the local/package variable for srv.Serve.
// Package names and other non-variable bases return nil.
func selectorBase(pass *Pass, x ast.Expr) types.Object {
	var obj types.Object
	switch x := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		obj = pass.Info.Uses[x.Sel]
	case *ast.Ident:
		obj = pass.Info.Uses[x]
	default:
		return nil
	}
	if v, ok := obj.(*types.Var); ok {
		return v
	}
	return nil
}

// isWaitGroupMethod reports whether call is (*sync.WaitGroup).<name>.
func isWaitGroupMethod(pass *Pass, call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "sync" && fn.Name() == name
}
