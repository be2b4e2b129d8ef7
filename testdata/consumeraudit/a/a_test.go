package a

// own is a's own test use of OwnTest and Dead.Name.
func own() string { return Dead{}.Name() + string(rune('0'+OwnTest())) }
