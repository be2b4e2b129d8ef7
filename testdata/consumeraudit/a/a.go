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
