package repro

// audit_test.go is the consumer audit. Every top-level func, method,
// type, var and const of the module outside rwc/ must be reached, and
// a name is reached when any of these uses it:
//
//   - non-test code of the module or of the bench/ module (which
//     imports internal/*; it is a consumer, never audited);
//   - an rwc Example;
//   - a test of a different package. A fixture that tests of several
//     packages share cannot live in one package's _test.go files.
//
// Uses are resolved to their go/types object, not matched by
// spelling, so a dead method that shares its name with a live one is
// flagged. A method also counts as reached when its type implements
// an interface whose same method is reached, or when implicitMethods
// names it. A name that only its own package's tests reach moves into
// those tests or goes; the few that stay on purpose are
// consumerAllowlist, each with its reason (DESIGN.md, "What
// deliberately stays").

import (
	"go/ast"
	"go/types"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
)

// consumerAllowlist is DESIGN.md's "What deliberately stays": names
// with no consumer outside their own package's tests, kept for the
// reason given. Keys are "dir.Name" or "dir.Recv.Name".
var consumerAllowlist = map[string]string{
	"internal/graph.Graph.BellmanFord":            "the independent reference the flow tests hold MCFSolver's Bellman-Ford start to",
	"internal/core.Augmentation.Attribution":      "public rwc.Augmentation API: the flow each fake edge carried",
	"internal/core.Augmentation.RemoveInfeasible": "public rwc.Augmentation API: Algorithm 1's removal of upgrades the SNR no longer carries",
	"internal/controller.Controller.PinFlow":      "public rwc.Controller API: paper §4.2's pinned flows",
	"internal/controller.Controller.UnpinAll":     "public rwc.Controller API: releases PinFlow's pins",
}

// implicitMethods are method names the standard library calls through
// an interface (sort.Interface, heap.Interface, fmt.Stringer, error,
// json.Marshaler), so a method of one of these names needs no
// identifier to name it.
var implicitMethods = map[string]bool{
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"String": true, "Error": true, "MarshalJSON": true,
}

func TestConsumerAudit(t *testing.T) {
	dead, stale := consumerAudit(loadAuditTree(t, ".", "bench"), "repro", consumerAllowlist)
	for _, d := range dead {
		t.Errorf("%s has no consumer outside its own package's tests: delete it, move it into those tests, or add it to consumerAllowlist with a reason", d)
	}
	for _, s := range stale {
		t.Errorf("consumerAllowlist entry %s is stale: %s", s.name, s.why)
	}
}

// TestConsumerAuditFixture holds the rule to testdata/consumeraudit: a
// dead method that shares a live method's spelling is flagged, a
// method reached only through an interface is not, a name only its own
// package's tests reach (in-package or external) is flagged, and one
// another package's tests reach is not. Allowlist entries for a
// reached name and for a missing one are stale.
func TestConsumerAuditFixture(t *testing.T) {
	pkgs := loadAuditTree(t, "testdata/consumeraudit")
	dead, stale := consumerAudit(pkgs, "fixture", nil)
	if want := []string{"a.Dead.Name", "a.OwnTest"}; !reflect.DeepEqual(dead, want) {
		t.Errorf("dead = %q, want %q", dead, want)
	}
	if len(stale) != 0 {
		t.Errorf("stale = %v with no allowlist", stale)
	}
	allow := map[string]string{"a.OwnTest": "kept", "a.OtherTest": "kept", "a.Gone": "kept"}
	dead, stale = consumerAudit(pkgs, "fixture", allow)
	wantStale := []staleEntry{{"a.Gone", "no such declaration"}, {"a.OtherTest", "it has a consumer"}}
	if want := []string{"a.Dead.Name"}; !reflect.DeepEqual(dead, want) || !reflect.DeepEqual(stale, wantStale) {
		t.Errorf("with allowlist: dead = %q, stale = %v; want %q, %v", dead, stale, want, wantStale)
	}
}

// loadAuditTree type-checks every package of the modules rooted at
// dirs, tests included, through one lint.Loader: a later module that
// imports an earlier one (bench/ replaces repro with ../) resolves to
// the same objects.
func loadAuditTree(t *testing.T, dirs ...string) []*lint.Package {
	t.Helper()
	loader := lint.NewLoader()
	var pkgs []*lint.Package
	for _, dir := range dirs {
		loaded, err := loader.LoadPatterns(dir, "./...")
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, loaded...)
	}
	return pkgs
}

type staleEntry struct{ name, why string }

// auditDecl is one audited declaration and its key.
type auditDecl struct {
	key string
	obj types.Object
}

// consumerAudit returns the audited declarations of module that
// nothing reaches, and the allowlist entries that are stale: declared
// nowhere, or reached after all. The module's rwc and bench packages
// are consumers only.
func consumerAudit(pkgs []*lint.Package, module string, allow map[string]string) (dead []string, stale []staleEntry) {
	audited := func(path string) bool {
		if path != module && !strings.HasPrefix(path, module+"/") {
			return false
		}
		return path != module+"/rwc" && path != module+"/bench" && !strings.HasPrefix(path, module+"/bench/")
	}
	dir := func(path string) string {
		if path == module {
			return "."
		}
		return strings.TrimPrefix(path, module+"/")
	}
	inTest := func(pkg *lint.Package, n ast.Node) bool {
		return strings.HasSuffix(pkg.Fset.File(n.Pos()).Name(), "_test.go")
	}

	var decls []auditDecl
	reached := map[types.Object]bool{}
	var ifaceMethods []*types.Func // interface methods some consumer calls
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			test := inTest(pkg, f)
			if audited(pkg.Path) && !test {
				decls = append(decls, declsOf(f, pkg.Info, dir(pkg.Path))...)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := origin(pkg.Info.Uses[id])
				if obj == nil || obj.Pkg() == nil || (test && obj.Pkg().Path() == pkg.Path) {
					return true
				}
				reached[obj] = true
				if fn, ok := obj.(*types.Func); ok && isInterfaceMethod(fn) {
					ifaceMethods = append(ifaceMethods, fn)
				}
				return true
			})
		}
	}

	// viaInterface reports whether a method is reached through an
	// interface its receiver type (or a pointer to it) implements.
	viaInterface := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		for _, m := range ifaceMethods {
			if m.Name() != fn.Name() {
				continue
			}
			iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
				return true
			}
		}
		return false
	}

	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		fn, isFunc := d.obj.(*types.Func)
		live := reached[d.obj] || (isFunc && viaInterface(fn))
		_, kept := allow[d.key]
		switch {
		case !live && !kept:
			dead = append(dead, d.key)
		case live && kept:
			stale = append(stale, staleEntry{d.key, "it has a consumer"})
		}
	}
	for key := range allow {
		if !declared[key] {
			stale = append(stale, staleEntry{key, "no such declaration"})
		}
	}
	sort.Strings(dead)
	sort.Slice(stale, func(i, j int) bool { return stale[i].name < stale[j].name })
	return dead, stale
}

// declsOf returns the audited top-level declarations of one file,
// keyed "dir.Name" or "dir.Recv.Name": every func but main and init,
// every method but implicitMethods, every type, var and const but _.
func declsOf(f *ast.File, info *types.Info, dir string) []auditDecl {
	var out []auditDecl
	add := func(key string, id *ast.Ident) {
		out = append(out, auditDecl{key, info.Defs[id]})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			switch {
			case d.Recv == nil && (d.Name.Name == "main" || d.Name.Name == "init"):
			case d.Recv == nil:
				add(dir+"."+d.Name.Name, d.Name)
			case !implicitMethods[d.Name.Name]:
				add(dir+"."+recvName(d.Recv.List[0].Type)+"."+d.Name.Name, d.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(dir+"."+s.Name.Name, s.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.Name != "_" {
							add(dir+"."+n.Name, n)
						}
					}
				}
			}
		}
	}
	return out
}

// isInterfaceMethod reports whether fn is an interface's method.
func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// origin maps a use of an instantiated generic func or field to its
// declaration's object.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// recvName is the type name of a method receiver: T, *T, T[P] or *T[P].
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
