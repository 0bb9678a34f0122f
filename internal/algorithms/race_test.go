//go:build race

package algorithms

// raceEnabled reports that this test binary was built with the race
// detector, whose instrumentation allocates and breaks alloc budgets.
const raceEnabled = true
