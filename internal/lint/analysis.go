package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"repro/internal/par"
)

// Analyzer is one named check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer so analyzers written here
// can be ported to the x/tools multichecker mechanically if the
// dependency ever becomes available; the Facts mechanism mirrors
// analysis facts, restricted to string payloads.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //nolint:<name> suppression comments. It must be a valid
	// identifier.
	Name string
	// Doc is a one-paragraph description of what the rule enforces.
	Doc string
	// Run performs the check on one package and reports findings
	// through the pass. Packages are analyzed in import order, so
	// Run may consume object facts exported by the pass's
	// (transitive) dependencies.
	Run func(*Pass) error
	// Finish, if non-nil, runs once after every package has been
	// analyzed, with all of this analyzer's module facts. It is the
	// hook for module-wide invariants no single package can see
	// (e.g. cross-package series-name collisions).
	Finish func(*ModulePass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic

	// facts is the read-only store committed by earlier levels;
	// newObjFacts/newModFacts buffer this pass's exports until the
	// level barrier commits them.
	facts       *factStore
	newObjFacts []exportedObjFact
	newModFacts []ModuleFact
	pkgOrder    int
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer *Analyzer
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer,
	})
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// All returns the full rwc-lint suite in stable order. Every analyzer
// listed here runs under `make lint` and must hold repo-wide.
func All() []*Analyzer {
	return []*Analyzer{
		NoRandGlobal, NoWallTime, NoFloatEq, UnitMix,
		MapIter, GoroLeak, ChanOrder, SeriesName, NolintPolicy,
	}
}

// pathHasSegments reports whether the slash-separated package path
// contains want as a consecutive run of segments. It is the matcher
// behind every per-package allow/forbid list, so that e.g.
// "internal/te" matches "repro/internal/te" and any of its
// sub-packages but never "repro/internal/telemetry".
func pathHasSegments(path, want string) bool {
	return strings.Contains("/"+path+"/", "/"+want+"/")
}

// nolintRE matches suppression comments: //nolint:name1,name2 with an
// optional trailing justification.
var nolintRE = regexp.MustCompile(`^//\s*nolint:([a-zA-Z0-9_,]+)`)

// nolintLines maps file name → line → set of suppressed analyzer
// names ("all" suppresses everything).
type nolintLines map[string]map[int]map[string]bool

func collectNolint(fset *token.FileSet, files []*ast.File) nolintLines {
	out := nolintLines{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := nolintRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := out[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					out[pos.Filename] = byLine
				}
				names := byLine[pos.Line]
				if names == nil {
					names = map[string]bool{}
					byLine[pos.Line] = names
				}
				for _, n := range strings.Split(m[1], ",") {
					names[strings.TrimSpace(n)] = true
				}
			}
		}
	}
	return out
}

func (n nolintLines) suppressed(fset *token.FileSet, d Diagnostic) bool {
	if d.Analyzer.Name == NolintPolicy.Name {
		// The suppression policy cannot be suppressed, or a reasonless
		// //nolint:all would wave itself through.
		return false
	}
	pos := fset.Position(d.Pos)
	names := n[pos.Filename][pos.Line]
	return names["all"] || names[d.Analyzer.Name]
}

// Run applies each analyzer to each package and returns the surviving
// diagnostics sorted by position. //nolint-suppressed findings are
// dropped here so every analyzer gets suppression support for free.
// Packages are analyzed in import order so cross-package facts
// resolve; see RunParallel for the concurrent variant.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunParallel(pkgs, analyzers, 1)
}

// pkgResult is one package's buffered analysis output, merged at the
// level barrier in package-index order so results are deterministic
// for any worker count.
type pkgResult struct {
	diags    []Diagnostic
	objFacts []exportedObjFact
	modFacts []ModuleFact
}

// RunParallel is Run with per-package fan-out on an internal/par pool.
// The import graph is scheduled in topological levels: packages within
// a level share no import edges, so their passes read an identical
// committed fact store and can run concurrently; facts are committed
// between levels in package order. Diagnostics are byte-identical for
// every workers value — par.Map returns results in index order and
// the final sort is total.
func RunParallel(pkgs []*Package, analyzers []*Analyzer, workers int) ([]Diagnostic, error) {
	levels, err := topoLevels(pkgs)
	if err != nil {
		return nil, err
	}
	facts := newFactStore()
	var diags []Diagnostic
	for _, level := range levels {
		level := level
		results, err := par.Map(par.Opts{Workers: workers, Name: "lint"}, len(level),
			func(_, i int) (pkgResult, error) {
				return analyzePackage(pkgs[level[i]], level[i], analyzers, facts)
			})
		if err != nil {
			return nil, err
		}
		for _, res := range results {
			diags = append(diags, res.diags...)
			for _, ef := range res.objFacts {
				facts.object[ef.obj] = append(facts.object[ef.obj], ef.fact)
			}
			facts.module = append(facts.module, res.modFacts...)
		}
	}
	var fset *token.FileSet
	if len(pkgs) > 0 {
		fset = pkgs[0].Fset
	}
	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		var raw []Diagnostic
		mp := &ModulePass{Analyzer: a, Fset: fset, facts: facts.module, diags: &raw}
		if err := a.Finish(mp); err != nil {
			return nil, fmt.Errorf("lint: %s finish: %w", a.Name, err)
		}
		diags = append(diags, filterNolint(pkgs, fset, raw)...)
	}
	if fset != nil {
		sortDiagnostics(fset, diags)
	}
	return diags, nil
}

// analyzePackage runs every analyzer on one package against the
// committed fact store, buffering diagnostics and fact exports.
func analyzePackage(pkg *Package, order int, analyzers []*Analyzer, facts *factStore) (pkgResult, error) {
	var res pkgResult
	nolint := collectNolint(pkg.Fset, pkg.Files)
	for _, a := range analyzers {
		var raw []Diagnostic
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &raw,
			facts:    facts,
			pkgOrder: order,
		}
		if err := a.Run(pass); err != nil {
			return res, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
		}
		for _, d := range raw {
			if !nolint.suppressed(pkg.Fset, d) {
				res.diags = append(res.diags, d)
			}
		}
		res.objFacts = append(res.objFacts, pass.newObjFacts...)
		res.modFacts = append(res.modFacts, pass.newModFacts...)
	}
	return res, nil
}

// filterNolint applies //nolint suppression to module-level (Finish)
// diagnostics, which are reported outside any single package's pass.
func filterNolint(pkgs []*Package, fset *token.FileSet, raw []Diagnostic) []Diagnostic {
	if len(raw) == 0 {
		return nil
	}
	merged := nolintLines{}
	for _, pkg := range pkgs {
		for file, byLine := range collectNolint(pkg.Fset, pkg.Files) {
			merged[file] = byLine
		}
	}
	var out []Diagnostic
	for _, d := range raw {
		if !merged.suppressed(fset, d) {
			out = append(out, d)
		}
	}
	return out
}

// topoLevels orders packages by their import edges (restricted to the
// given set, matched by path) and groups them into dependency levels.
// Ties keep input order, so the schedule — and with it fact commit
// order and ModuleFact.PkgOrder — is deterministic. A package whose
// path equals an earlier package's path (an external _test package)
// depends on that earlier package.
func topoLevels(pkgs []*Package) ([][]int, error) {
	first := map[string]int{}
	for i, p := range pkgs {
		if _, ok := first[p.Path]; !ok {
			first[p.Path] = i
		}
	}
	indeg := make([]int, len(pkgs))
	dependents := make([][]int, len(pkgs))
	for i, p := range pkgs {
		add := func(j int) {
			dependents[j] = append(dependents[j], i)
			indeg[i]++
		}
		if j, ok := first[p.Path]; ok && j != i {
			add(j)
		}
		for _, imp := range p.Types.Imports() {
			if j, ok := first[imp.Path()]; ok && j != i {
				add(j)
			}
		}
	}
	var levels [][]int
	done := 0
	ready := make([]bool, len(pkgs))
	for done < len(pkgs) {
		var level []int
		for i := range pkgs {
			if !ready[i] && indeg[i] == 0 {
				level = append(level, i)
			}
		}
		if len(level) == 0 {
			return nil, fmt.Errorf("lint: import cycle among %d unscheduled packages", len(pkgs)-done)
		}
		for _, i := range level {
			ready[i] = true
			done++
		}
		for _, i := range level {
			for _, j := range dependents[i] {
				indeg[j]--
			}
		}
		levels = append(levels, level)
	}
	return levels, nil
}

func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer.Name < diags[j].Analyzer.Name
	})
}
