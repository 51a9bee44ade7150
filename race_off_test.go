//go:build !race

package trinit

// raceEnabled reports whether the test binary runs under the race
// detector.
const raceEnabled = false
