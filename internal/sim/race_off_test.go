//go:build !race

package sim

// raceEnabled reports a race-instrumented build, under which sync.Pool
// drops items at random and allocation counts mean nothing.
const raceEnabled = false
