package a_test

import "fixture/a"

// ownExternal is a's external test use of OwnTest.
func ownExternal() int { return a.OwnTest() }
