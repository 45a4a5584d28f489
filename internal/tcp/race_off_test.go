//go:build !race

package tcp_test

// raceEnabled skips the allocation budget under the race detector.
const raceEnabled = false
