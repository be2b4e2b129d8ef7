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
// names it.
//
// Struct fields are held to the same rule, keyed "dir.Type.Field": a
// field of a top-level struct type is reached when one of those
// consumers reads it. The target of = or op=, the operand of ++ or --
// and a composite-literal key are writes, not reads. A field with a
// json tag counts as read, because the encoder or decoder reads it
// (decoding also type-checks outside input, such as a request body),
// and an embedded field counts as read when a read of anything
// promoted through it passes it.
//
// A name or field that only its own package's tests reach moves into
// those tests or goes; the few that stay on purpose are
// consumerAllowlist, each with its reason (DESIGN.md, "What
// deliberately stays").

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
)

// consumerAllowlist is DESIGN.md's "What deliberately stays": names
// and fields with no consumer outside their own package's tests, kept
// for the reason given. Keys are "dir.Name", "dir.Recv.Name" or
// "dir.Type.Field".
var consumerAllowlist = map[string]string{
	"internal/graph.Graph.BellmanFord":            "the independent reference the flow tests hold MCFSolver's Bellman-Ford start to",
	"internal/core.Augmentation.Attribution":      "public rwc.Augmentation API: the flow each fake edge carried",
	"internal/core.Augmentation.RemoveInfeasible": "public rwc.Augmentation API: Algorithm 1's removal of upgrades the SNR no longer carries",
	"internal/controller.Controller.PinFlow":      "public rwc.Controller API: paper §4.2's pinned flows",
	"internal/controller.Controller.UnpinAll":     "public rwc.Controller API: releases PinFlow's pins",

	"internal/core.Decision.PenaltyCost":                  "§3.2's penalty: the cost the TE charged on G′, which the reference layout is held to",
	"internal/core.CapacityChange.Penalty":                "§3.2's penalty: the activation cost of the change the TE bought",
	"internal/core.FakeAttribution.Fake":                  "§3.2's fake edge: the G′ edge an attribution row describes",
	"internal/controller.ConsistentPlan.Intermediate":     "§4.2(ii)'s intermediate state: the allocation traffic rides while EU re-modulates",
	"internal/controller.ConsistentPlan.IntermediateLoss": "§4.2(ii): the throughput the intermediate state gives up",
	"internal/snr.Fiber.FiberDips":                        "the shared events the sampled-fiber tests check SampleFiber against",
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
// another package's tests reach is not. A field that cmd only writes,
// or that only a's own tests read, is flagged; one that cmd or cmd's
// tests read, one with a json tag, and an embedded field a promoted
// read passes through are not. Allowlist entries for a reached name or
// field and for a missing one are stale.
func TestConsumerAuditFixture(t *testing.T) {
	pkgs := loadAuditTree(t, "testdata/consumeraudit")
	dead, stale := consumerAudit(pkgs, "fixture", nil)
	if want := []string{"a.Dead.Name", "a.Fields.OwnTest", "a.Fields.Written", "a.OwnTest"}; !reflect.DeepEqual(dead, want) {
		t.Errorf("dead = %q, want %q", dead, want)
	}
	if len(stale) != 0 {
		t.Errorf("stale = %v with no allowlist", stale)
	}
	allow := map[string]string{
		"a.OwnTest": "kept", "a.OtherTest": "kept", "a.Gone": "kept",
		"a.Fields.OwnTest": "kept", "a.Fields.Written": "kept", "a.Fields.Read": "kept",
	}
	dead, stale = consumerAudit(pkgs, "fixture", allow)
	wantStale := []staleEntry{{"a.Fields.Read", "it has a consumer"}, {"a.Gone", "no such declaration"}, {"a.OtherTest", "it has a consumer"}}
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

// auditDecl is one audited declaration and its key. codec marks a
// field with a json tag, which the encoder or decoder reads.
type auditDecl struct {
	key   string
	obj   types.Object
	codec bool
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
			// consumes reports whether a use in f reaches an object of
			// package objPkg.
			consumes := func(objPkg *types.Package) bool {
				return objPkg != nil && !(test && objPkg.Path() == pkg.Path)
			}
			writes := map[*ast.Ident]bool{} // written field selectors and keys
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, lhs := range n.Lhs {
							markWrite(writes, lhs)
						}
					}
				case *ast.IncDecStmt:
					markWrite(writes, n.X)
				case *ast.CompositeLit:
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							markWrite(writes, kv.Key)
						}
					}
				case *ast.SelectorExpr:
					// A promoted field or method that is read reaches
					// every embedded field on its path.
					if sel := pkg.Info.Selections[n]; sel != nil && !writes[n.Sel] {
						for _, fld := range embeddedPath(sel) {
							if consumes(fld.Pkg()) {
								reached[fld] = true
							}
						}
					}
				case *ast.Ident:
					obj := origin(pkg.Info.Uses[n])
					if obj == nil || !consumes(obj.Pkg()) {
						return true
					}
					if v, ok := obj.(*types.Var); ok && v.IsField() && writes[n] {
						return true
					}
					reached[obj] = true
					if fn, ok := obj.(*types.Func); ok && isInterfaceMethod(fn) {
						ifaceMethods = append(ifaceMethods, fn)
					}
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
		live := reached[d.obj] || d.codec || (isFunc && viaInterface(fn))
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
		out = append(out, auditDecl{key: key, obj: info.Defs[id]})
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
					st, ok := info.Defs[s.Name].Type().Underlying().(*types.Struct)
					for i := 0; ok && !s.Assign.IsValid() && i < st.NumFields(); i++ {
						_, codec := reflect.StructTag(st.Tag(i)).Lookup("json")
						fld := st.Field(i)
						out = append(out, auditDecl{dir + "." + s.Name.Name + "." + fld.Name(), fld, codec})
					}
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

// markWrite records x as a written field when it is a selector (the
// target of = or op=, or the operand of ++ or --) or a composite-literal
// key.
func markWrite(writes map[*ast.Ident]bool, x ast.Expr) {
	switch x := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		writes[x.Sel] = true
	case *ast.Ident:
		writes[x] = true
	}
}

// embeddedPath returns the embedded fields a selection passes through
// on its way to a promoted field or method.
func embeddedPath(sel *types.Selection) []*types.Var {
	var path []*types.Var
	t := sel.Recv()
	for _, i := range sel.Index()[:len(sel.Index())-1] {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		fld := t.Underlying().(*types.Struct).Field(i)
		path = append(path, fld.Origin())
		t = fld.Type()
	}
	return path
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
