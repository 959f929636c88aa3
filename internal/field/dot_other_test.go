//go:build !amd64

package field

// vectorDotPacked reports that no vector DotPacked exists off amd64.
func vectorDotPacked(*Field, []uint32, []Elem) (Elem, bool) { return 0, false }

// vectorDotPackedRows reports that no panel kernel exists off amd64.
func vectorDotPackedRows(*Field, string, [][]Elem, [][]Elem, []uint32, int) bool { return false }

// vectorAXPY4 reports that no vector four-row step exists off amd64.
func vectorAXPY4([]uint64, *[4]Elem, *[4][]Elem) bool { return false }

// vectorPackWords reports that no vector narrowing exists off amd64.
func vectorPackWords(uint64, []uint32, []Elem) (ok, ran bool) { return false, false }

// vectorDotBytes reports that no vector DotBytes exists off amd64.
func vectorDotBytes(*Field, []uint8, []Elem) (Elem, bool) { return 0, false }

// vectorDotBytesRows reports that no byte panel kernel exists off amd64.
func vectorDotBytesRows(*Field, string, [][]Elem, [][]Elem, []uint8, int) bool { return false }

// vectorPackBytes reports that no vector byte narrowing exists off amd64.
func vectorPackBytes([]uint8, []Elem) (ok, ran bool) { return false, false }

// vectorRowBlocks reports that no row-block kernel exists off amd64.
func vectorRowBlocks(*Field, bool, []Elem, []Elem, []uint32, []uint8, int) bool { return false }
