// Package proctest holds the GOMAXPROCS sweep the determinism tests
// share. The LOCAL engine splits every run into GOMAXPROCS contiguous
// node ranges, stepped concurrently, so running a workload under
// several settings exercises one, two, and four concurrent ranges on any
// machine, a single-vCPU runner included.
package proctest

import "runtime"

// With runs fn with GOMAXPROCS set to procs, restoring the previous
// setting afterwards.
func With(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// Sweep runs fn under GOMAXPROCS 1, 2, and 4, in that order, so a test
// can take the first call's result as its reference.
func Sweep(fn func(procs int)) {
	for _, procs := range []int{1, 2, 4} {
		With(procs, func() { fn(procs) })
	}
}
