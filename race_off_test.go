//go:build !race

package microbank_test

// raceEnabled reports whether the race detector instruments this test
// binary (its shadow-memory hooks allocate, breaking alloc bounds).
const raceEnabled = false
