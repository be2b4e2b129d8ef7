package lint

import (
	"go/ast"
	"go/types"
)

// Artifact sinks are the calls through which a run's observable
// output leaves the program: stdout/file prints, io writes, obs
// registry/tracer/logger writes, and flight-recorder frames. The
// determinism invariant (same seed ⇒ byte-identical artifacts) is
// only violated when unordered data reaches one of these, so both
// mapiter and chanorder key their reports on this classifier.

// sinkPrintFuncs are package-level printing functions (package fmt).
var sinkPrintFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// sinkWriteMethods are io-writing method names flagged on any
// receiver: an ordered byte stream (file, buffer, hash, JSON encoder)
// written in nondeterministic order yields nondeterministic bytes.
var sinkWriteMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "Encode": true,
}

// sinkObsMethods are method names that write observability state when
// the receiver type is declared under internal/obs: registry series
// creation and mutation (float accumulation does not commute
// bit-exactly, and gauge Set is last-write-wins), tracer events
// (sequence-numbered), logger lines (ordered stderr stream), and
// flight frames.
var sinkObsMethods = map[string]bool{
	// registry
	"Counter": true, "Gauge": true, "Histogram": true,
	"Add": true, "Inc": true, "Set": true, "Observe": true,
	// tracer
	"Event": true, "Begin": true, "Span": true, "End": true,
	// logger
	"Debug": true, "Info": true, "Warn": true, "Error": true,
	// flight recorder
	"Record": true, "Bind": true,
	// manifest
	"AddAlert": true, "SetOption": true,
}

// artifactSink reports whether call writes to a run artifact, and a
// short human name for the sink ("fmt.Printf", "(*obs.Tracer).Event").
func artifactSink(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	// Package-level function: fmt.Fprintf and friends.
	if ident, ok := sel.X.(*ast.Ident); ok {
		if pkgName, ok := pass.Info.Uses[ident].(*types.PkgName); ok {
			if pkgName.Imported().Path() == "fmt" && sinkPrintFuncs[sel.Sel.Name] {
				return "fmt." + sel.Sel.Name, true
			}
			return "", false
		}
	}
	// Method call: classify by name and receiver package.
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Type() == nil {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	name := fn.Name()
	if sinkWriteMethods[name] {
		return recvName(sig) + "." + name, true
	}
	if sinkObsMethods[name] && fn.Pkg() != nil && pathHasSegments(fn.Pkg().Path(), "internal/obs") {
		return recvName(sig) + "." + name, true
	}
	return "", false
}

// recvName renders a method's receiver type compactly for messages.
func recvName(sig *types.Signature) string {
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			return "(" + obj.Pkg().Name() + "." + obj.Name() + ")"
		}
		return "(" + obj.Name() + ")"
	}
	return "(" + t.String() + ")"
}
