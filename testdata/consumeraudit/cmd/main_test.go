package main

import "fixture/a"

// other is another package's test use of OtherTest and
// Fields.OtherTest.
func other() int { return a.OtherTest() + a.Fields{}.OtherTest }
