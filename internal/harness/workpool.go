package harness

// The shared worker pool lives in internal/workpool so that packages the
// harness itself builds on (internal/sample's interval shards) can lease
// helpers from the same process-wide token budget without importing the
// harness back. The serve daemon and the CLIs configure concurrency through
// the two functions below.

import "dmp/internal/workpool"

// SetHelperBudget bounds the helper goroutines all pools in the process may
// run concurrently; see workpool.SetHelperBudget.
func SetHelperBudget(n int) { workpool.SetHelperBudget(n) }

// HelperBudget returns the current budget capacity.
func HelperBudget() int { return workpool.HelperBudget() }
