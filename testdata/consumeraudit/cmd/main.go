// Command cmd is the fixture's consumer.
package main

import "fixture/a"

func main() {
	var s a.Shouter = a.Via{}
	_, _, _ = a.Live{}.Name(), a.Dead{}, s.Shout()
}
