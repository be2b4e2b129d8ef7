// Command cmd is the fixture's consumer.
package main

import "fixture/a"

func main() {
	var s a.Shouter = a.Via{}
	_, _, _ = a.Live{}.Name(), a.Dead{}, s.Shout()
	f := a.Fields{Written: 1}
	f.Written = 2
	f.Written += 3
	f.Written++
	_, _ = f.Read, f.Promoted
}
