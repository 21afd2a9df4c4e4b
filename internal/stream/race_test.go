//go:build race

package stream

// raceEnabled: see alloc_norace_test.go.
const raceEnabled = true
