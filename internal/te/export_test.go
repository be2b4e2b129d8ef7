package te

// MatchesRef is matchesRef for the external tests, which may import the
// packages that import te (internal/wan builds the continental graphs).
var MatchesRef = matchesRef
