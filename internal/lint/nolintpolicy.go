package lint

import (
	"regexp"
	"strings"
)

// NolintPolicy is the meta-check on suppressions. A //nolint that
// names no analyzer hides future findings of every kind, and one
// without a justification is unreviewable — six months later nobody
// knows whether the suppression is load-bearing or stale. The
// required canonical form is
//
//	//nolint:analyzer[,analyzer...] // reason
//
// with a specific analyzer list (never "all") and a non-empty reason
// after a ` // ` separator. Violations cannot themselves be
// suppressed: the framework refuses to apply //nolint to this
// analyzer's diagnostics.
var NolintPolicy = &Analyzer{
	Name: "nolintpolicy",
	Run:  runNolintPolicy,
}

// nolintAnyRE spots anything that intends to be a suppression
// directive (the lax form collectNolint also accepts, plus bare
// //nolint), so malformed variants are caught rather than silently
// ignored or silently applied.
var nolintAnyRE = regexp.MustCompile(`^//\s*nolint\b`)

// nolintCanonicalRE is the only accepted shape.
var nolintCanonicalRE = regexp.MustCompile(`^//nolint:([a-z0-9_]+(?:,[a-z0-9_]+)*) // \S`)

func runNolintPolicy(pass *Pass) error {
	for _, file := range pass.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !nolintAnyRE.MatchString(c.Text) {
					continue
				}
				m := nolintCanonicalRE.FindStringSubmatch(c.Text)
				if m == nil {
					pass.Reportf(c.Pos(),
						"malformed suppression %q: required form is `//nolint:analyzer // reason` (named analyzers, a space-slash-slash separator, and a justification)",
						firstLine(c.Text))
					continue
				}
				for _, name := range strings.Split(m[1], ",") {
					if name == "all" {
						pass.Reportf(c.Pos(),
							"//nolint:all suppresses every analyzer including future ones; name the specific analyzers instead")
					}
				}
			}
		}
	}
	return nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
