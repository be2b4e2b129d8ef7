// Package a is the consumer audit's fixture: each declaration is one
// case of the consumer rule.
package a

// Live is reached: cmd calls its Name.
type Live struct{}

// Name is live.
func (Live) Name() string { return "live" }

// Dead is reached: cmd builds one.
type Dead struct{}

// Name shares Live.Name's spelling but nothing calls it: flagged.
func (Dead) Name() string { return "dead" }

// Shouter is reached: cmd calls Shout through it.
type Shouter interface{ Shout() string }

// Via is reached: cmd converts one to a Shouter.
type Via struct{}

// Shout is reached only through Shouter: not flagged.
func (Via) Shout() string { return "via" }

// OwnTest is reached only by a's own tests: flagged.
func OwnTest() int { return 1 }

// OtherTest is reached only by cmd's tests: not flagged.
func OtherTest() int { return 2 }

// Fields is reached: cmd builds one. Each field is one case of the
// field rule.
type Fields struct {
	// Written is only written by cmd (assignment, op=, ++ and a
	// composite-literal key): flagged.
	Written int
	// Read is read by cmd.
	Read int
	// OwnTest is read only by a's own tests: flagged.
	OwnTest int
	// OtherTest is read only by cmd's tests: not flagged.
	OtherTest int
	// Wire has a json tag, so the codec reads it: not flagged.
	Wire int `json:"wire"`
	// Inner is embedded: cmd reads Promoted through it, so neither is
	// flagged.
	Inner
}

// Inner is reached: Fields embeds it.
type Inner struct {
	// Promoted is read through Fields.
	Promoted int
}
