package a

// own is a's own test use of OwnTest, Dead.Name and Fields.OwnTest.
func own() string { return Dead{}.Name() + string(rune('0'+OwnTest()+Fields{}.OwnTest)) }
