package dist

import (
	"runtime"
	"sync"
)

// This file is the launcher of the sharded compute kernels that run
// outside the round engine: the pruning decide kernel, the peeling path
// measurement, the per-path coloring, the per-path correction, the MIS
// components and the correction setup. In the LOCAL model a node's
// local computation is free; these stages are that computation, split
// over the host's CPUs exactly as the engine splits its rounds — by
// GOMAXPROCS, with no knob — and written into per-item slots, so every
// GOMAXPROCS gives bit-identical output.

// KernelShards is the shard count of a launch over n items at the
// current GOMAXPROCS: w = min(GOMAXPROCS, n) workers take contiguous
// chunks of ⌈n/w⌉ items, which can leave fewer than w chunks. It reads
// GOMAXPROCS once; a caller that keeps per-shard scratch sizes it by
// this count and passes the same count to RunKernel, so a GOMAXPROCS
// change between the two cannot outgrow the scratch.
func KernelShards(n int) int {
	if n == 0 {
		return 0
	}
	w := min(runtime.GOMAXPROCS(0), n)
	chunk := (n + w - 1) / w
	return (n + chunk - 1) / chunk
}

// RunKernel runs one launch of a sharded kernel: [0, n) in shards
// contiguous chunks, where shards is KernelShards(n), and body once per
// chunk with its shard index and range — one goroutine per chunk, or
// the calling goroutine when there is one chunk. body may write only
// state its shard or range owns.
//
// o, when non-nil, sees the launch as one span named kernel:
// KernelStart(kernel, shards) before any chunk runs, each chunk
// bracketed by KernelShardStart and KernelShardEnd(shard, hi−lo) on its
// own goroutine, and KernelEnd after every chunk has returned. n = 0
// runs nothing and emits no span. The launcher never reads the wall
// clock; the observer stamps the hooks, as with engine rounds.
func RunKernel(kernel string, n, shards int, o RoundObserver, body func(shard, lo, hi int)) {
	if n == 0 {
		return
	}
	if o != nil {
		o.KernelStart(kernel, shards)
	}
	if shards == 1 {
		runKernelShard(o, body, 0, 0, n, nil)
	} else {
		chunk := (n + shards - 1) / shards
		var wg sync.WaitGroup
		wg.Add(shards)
		for s := 0; s < shards; s++ {
			go runKernelShard(o, body, s, s*chunk, min(s*chunk+chunk, n), &wg)
		}
		wg.Wait()
	}
	if o != nil {
		o.KernelEnd()
	}
}

// runKernelShard runs one chunk inside the observer's shard hooks; wg,
// when non-nil, is signalled at the end. Spawning this named function
// with explicit arguments, as engine.stepRanges spawns stepRange, keeps
// the launcher free of a capturing closure.
func runKernelShard(o RoundObserver, body func(shard, lo, hi int), shard, lo, hi int, wg *sync.WaitGroup) {
	if wg != nil {
		defer wg.Done()
	}
	if o != nil {
		o.KernelShardStart(shard)
	}
	body(shard, lo, hi)
	if o != nil {
		o.KernelShardEnd(shard, hi-lo)
	}
}
