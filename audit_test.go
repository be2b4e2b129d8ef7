package repro

// audit_test.go is the consumer audit: every top-level func, method,
// type, var and const of the module outside rwc/ must be named by some
// non-test code other than its own declaration — in the module, in the
// bench/ module (which imports internal/*), or in an rwc Example.
// Names that only their own tests reach are deleted, not kept; the few
// that stay on purpose are consumerAllowlist, each with its reason
// (DESIGN.md, "What deliberately stays").
//
// Matching is by identifier name, not by type: a method counts as used
// when any other non-test identifier spells its name. That is
// conservative — it can miss a dead name that shares its spelling with
// a live one, never flag a live one.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// consumerAllowlist is DESIGN.md's "What deliberately stays": names
// with no consumer outside their own tests, kept for the reason given.
// Keys are "dir.Name" or "dir.Recv.Name".
var consumerAllowlist = map[string]string{
	"internal/graph.Graph.BellmanFord":              "the independent reference the flow tests hold MCFSolver's Bellman-Ford start to",
	"internal/graph.Graph.Out":                      "the adjacency the independent searches in the graph and te tests walk (reference Yen, the GK oracle's Dijkstra, the GK certificate's)",
	"internal/graph.Graph.TotalCapacity":            "test fixture in the graph, te and wan tests and the root benchmarks",
	"internal/obs/hist.Archive.Filter":              "test fixture in the hist and wan tests",
	"internal/core.Augmenter.FakeID":                "how the augmenter and gate oracle tests find a link's fake edge",
	"internal/core.Augmentation.Attribution":        "public rwc.Augmentation API: the flow each fake edge carried",
	"internal/core.Augmentation.RemoveInfeasible":   "public rwc.Augmentation API: Algorithm 1's removal of upgrades the SNR no longer carries",
	"internal/controller.Controller.PinFlow":        "public rwc.Controller API: paper §4.2's pinned flows",
	"internal/controller.Controller.UnpinAll":       "public rwc.Controller API: releases PinFlow's pins",
	"internal/controller.Controller.ConsistentStep": "public rwc.Controller API: paper §4.2's consistent (three-state) updates",
	"internal/stats.ApproxEqual":                    "the comparison the nofloateq lint rule points to; the oracle tests use it",
}

// implicitMethods are method names the standard library calls through
// an interface (sort.Interface, heap.Interface, fmt.Stringer, error),
// so a method of one of these names needs no identifier to name it.
var implicitMethods = map[string]bool{
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"String": true, "Error": true,
}

// auditFile is one parsed non-test file.
type auditFile struct {
	dir   string // slash path relative to the repo root, "." for the root
	bench bool   // in the bench/ module: a consumer, never audited
	file  *ast.File
}

func TestConsumerAudit(t *testing.T) {
	files, examples := parseAuditTree(t, ".")
	dead, stale := consumerAudit(files, examples, consumerAllowlist)
	for _, d := range dead {
		t.Errorf("%s has no consumer outside its own tests: delete it, or add it to consumerAllowlist with a reason", d)
	}
	for _, s := range stale {
		t.Errorf("consumerAllowlist entry %s is stale: %s", s.name, s.why)
	}
}

// parseAuditTree parses every non-test .go file under root (bench/
// included, testdata and hidden directories skipped) and the Example
// functions of rwc's tests.
func parseAuditTree(t *testing.T, root string) ([]auditFile, []*ast.FuncDecl) {
	t.Helper()
	fset := token.NewFileSet()
	var files []auditFile
	var examples []*ast.FuncDecl
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		test := strings.HasSuffix(name, "_test.go")
		if test && dir != "rwc" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if !test {
			files = append(files, auditFile{dir: dir, bench: dir == "bench" || strings.HasPrefix(dir, "bench/"), file: f})
			return nil
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Example") {
				examples = append(examples, fn)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files, examples
}

type staleEntry struct{ name, why string }

// consumerAudit returns the audited declarations no other identifier
// names, and the allowlist entries that are stale: declared nowhere, or
// named by a consumer after all.
func consumerAudit(files []auditFile, examples []*ast.FuncDecl, allow map[string]string) (dead []string, stale []staleEntry) {
	type decl struct {
		key   string
		ident *ast.Ident
	}
	var decls []decl
	isDecl := map[*ast.Ident]bool{}
	for _, f := range files {
		if f.bench || f.dir == "rwc" {
			continue
		}
		for _, d := range f.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				key := f.dir + "." + d.Name.Name
				if d.Recv == nil && (d.Name.Name == "main" || d.Name.Name == "init") {
					continue
				}
				if d.Recv != nil {
					if implicitMethods[d.Name.Name] {
						continue
					}
					key = f.dir + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
				}
				decls = append(decls, decl{key, d.Name})
				isDecl[d.Name] = true
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						decls = append(decls, decl{f.dir + "." + s.Name.Name, s.Name})
						isDecl[s.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.Name != "_" {
								decls = append(decls, decl{f.dir + "." + n.Name, n})
								isDecl[n] = true
							}
						}
					}
				}
			}
		}
	}

	uses := map[string]int{}
	count := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !isDecl[id] {
				uses[id.Name]++
			}
			return true
		})
	}
	for _, f := range files {
		count(f.file)
	}
	for _, ex := range examples {
		count(ex)
	}

	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		if uses[d.ident.Name] == 0 {
			if _, ok := allow[d.key]; !ok {
				dead = append(dead, d.key)
			}
		} else if _, ok := allow[d.key]; ok {
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
