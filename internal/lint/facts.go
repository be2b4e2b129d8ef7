package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
)

// ObjectFact is one statement an analyzer exports about a typed
// object (usually a function): e.g. mapiter's "the slice returned by
// this function is in map-iteration order". Facts flow strictly along
// the import graph — packages are analyzed in dependency order, and a
// pass sees only facts committed by packages it (transitively)
// imports plus facts it exported itself — so fact lookup is
// deterministic regardless of how many analysis workers run.
type ObjectFact struct {
	// Analyzer is the exporting analyzer's name; lookups are scoped to
	// it so analyzers cannot read each other's facts by accident.
	Analyzer string
	// Kind discriminates fact types within one analyzer.
	Kind string
	// Data is the fact payload in an analyzer-chosen encoding.
	Data string
}

// ModuleFact is one statement an analyzer exports about the module as
// a whole, delivered to its Finish pass after every package has been
// analyzed: e.g. seriesname's "package P registers metric M with help
// H at position Pos". Module facts are accumulated in package load
// order, which the driver makes deterministic (topological, ties by
// input order), so Finish sees an identical slice every run.
type ModuleFact struct {
	Analyzer string
	Kind     string
	Data     string
	// PkgOrder is the load index of the exporting package; it gives
	// Finish passes a deterministic "who was first" order that does
	// not depend on file-system paths.
	PkgOrder int
	Pkg      string
	Pos      token.Pos
}

// factStore holds facts committed by completed analysis levels. It is
// written only at level barriers (single-threaded) and read
// concurrently by the passes of later levels, so it needs no lock.
type factStore struct {
	object map[types.Object][]ObjectFact
	module []ModuleFact
}

func newFactStore() *factStore {
	return &factStore{object: map[types.Object][]ObjectFact{}}
}

// ExportObjectFact records a fact about obj, visible to this pass's
// own lookups immediately and to later-level passes after the commit
// barrier.
func (p *Pass) ExportObjectFact(obj types.Object, kind, data string) {
	if obj == nil {
		return
	}
	p.newObjFacts = append(p.newObjFacts, exportedObjFact{
		obj:  obj,
		fact: ObjectFact{Analyzer: p.Analyzer.Name, Kind: kind, Data: data},
	})
}

// ObjectFact returns the first fact of the given kind exported about
// obj by this same analyzer — either committed by an
// already-analyzed package or exported earlier in this pass.
func (p *Pass) ObjectFact(obj types.Object, kind string) (string, bool) {
	if obj == nil {
		return "", false
	}
	for _, ef := range p.newObjFacts {
		if ef.obj == obj && ef.fact.Kind == kind && ef.fact.Analyzer == p.Analyzer.Name {
			return ef.fact.Data, true
		}
	}
	if p.facts == nil {
		return "", false
	}
	for _, f := range p.facts.object[obj] {
		if f.Analyzer == p.Analyzer.Name && f.Kind == kind {
			return f.Data, true
		}
	}
	return "", false
}

// ExportModuleFact records a module-wide fact for this analyzer's
// Finish pass.
func (p *Pass) ExportModuleFact(kind, data string, pos token.Pos) {
	p.newModFacts = append(p.newModFacts, ModuleFact{
		Analyzer: p.Analyzer.Name,
		Kind:     kind,
		Data:     data,
		PkgOrder: p.pkgOrder,
		Pkg:      p.Pkg.Path(),
		Pos:      pos,
	})
}

type exportedObjFact struct {
	obj  types.Object
	fact ObjectFact
}

// ModulePass is the view handed to an analyzer's Finish hook: every
// module fact the analyzer exported, in deterministic package-load
// order, plus a reporter. Finish diagnostics go through the same
// //nolint filtering and sorting as per-package ones.
type ModulePass struct {
	Analyzer *Analyzer

	facts []ModuleFact
	diags *[]Diagnostic
}

// Facts returns this analyzer's module facts sorted by package load
// order, then position, then data — a total, deterministic order.
func (mp *ModulePass) Facts() []ModuleFact {
	out := make([]ModuleFact, 0, len(mp.facts))
	for _, f := range mp.facts {
		if f.Analyzer == mp.Analyzer.Name {
			out = append(out, f)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].PkgOrder != out[j].PkgOrder {
			return out[i].PkgOrder < out[j].PkgOrder
		}
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].Data < out[j].Data
	})
	return out
}

// Reportf records a module-level diagnostic at pos.
func (mp *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*mp.diags = append(*mp.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: mp.Analyzer,
	})
}
