//go:build race

package serve

// Under the race detector sync.Pool sheds items at random, so pooled
// staging allocation counts are not meaningful; the zero-alloc pin skips
// itself when this is set.
func init() { raceEnabled = true }
