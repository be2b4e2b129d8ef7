package main

import "fixture/a"

// other is another package's test use of OtherTest.
func other() int { return a.OtherTest() }
