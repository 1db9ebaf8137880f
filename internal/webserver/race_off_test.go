//go:build !race

package webserver

// raceEnabled reports whether the race detector is on; it changes
// allocation sizes, so heap budgets are not checked under it.
const raceEnabled = false
