// Package sharefix seeds worker goroutines that write captured state:
// the per-shard discipline (write only slots indexed by your own
// parameters) next to the racy shapes sharedwrite must flag.
package sharefix

import "sync"

type result struct{ v int }

// runShards is the runner idiom: the body callback runs on spawned
// workers, which sharedwrite discovers through the call graph.
func runShards(n, workers int, body func(shard, lo, hi int)) {
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	shard := 0
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(shard, lo, hi int) {
			defer wg.Done()
			body(shard, lo, hi)
		}(shard, lo, hi)
		shard++
	}
	wg.Wait()
}

// goodStage is the blessed shape: every write lands in a slot indexed
// by a value derived from the worker's own range parameters.
func goodStage(results []result) {
	runShards(len(results), 4, func(shard, lo, hi int) {
		for pos := lo; pos < hi; pos++ {
			results[pos] = result{v: pos}
		}
	})
}

// badStage writes through an index captured from the enclosing scope:
// every worker hits the same slot.
func badStage(errs []error) {
	first := 0
	runShards(len(errs), 4, func(shard, lo, hi int) {
		errs[first] = nil // want `worker goroutine writes the captured slice at a non-partitioned index errs`
	})
}

// goodDirect spawns directly with a partitioned range.
func goodDirect(out []int, workers int) {
	var wg sync.WaitGroup
	chunk := (len(out) + workers - 1) / workers
	for lo := 0; lo < len(out); lo += chunk {
		hi := lo + chunk
		if hi > len(out) {
			hi = len(out)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				out[i] = i
			}
		}(lo, hi)
	}
	wg.Wait()
}

// badFixedSlot writes slot zero from every worker.
func badFixedSlot(out []int) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out[0] = w // want `worker goroutine writes the captured slice at a non-partitioned index out`
		}(w)
	}
	wg.Wait()
}

// badMapWrite writes a captured map: maps have no per-slot discipline.
func badMapWrite(counts map[string]int) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func(i int) {
		defer wg.Done()
		counts["x"] = i // want `worker goroutine writes the captured map counts`
	}(1)
	wg.Wait()
}

// badMapDelete deletes from a captured map.
func badMapDelete(counts map[string]int) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		delete(counts, "x") // want `worker goroutine calls delete on the captured container counts`
	}()
	wg.Wait()
}

// badRebind increments a captured accumulator: a lost-update race.
func badRebind(n int) int {
	total := 0
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		total++ // want `worker goroutine rebinds the captured variable total`
	}()
	wg.Wait()
	return total + n
}

// goodLocalDerived indexes through a local computed from the worker's
// parameters: still partitioned.
func goodLocalDerived(out []int, workers int) {
	runShards(len(out), workers, func(shard, lo, hi int) {
		base := lo
		for i := 0; i < hi-lo; i++ {
			out[base+i] = i
		}
	})
}

// runKernel is the closure-free runner: each chunk's goroutine runs a
// named function with explicit arguments, which calls the body.
func runKernel(n, shards int, body func(shard, lo, hi int)) {
	chunk := (n + shards - 1) / shards
	var wg sync.WaitGroup
	wg.Add(shards)
	for s := 0; s < shards; s++ {
		go runChunk(body, s, s*chunk, min(s*chunk+chunk, n), &wg)
	}
	wg.Wait()
}

func runChunk(body func(shard, lo, hi int), shard, lo, hi int, wg *sync.WaitGroup) {
	defer wg.Done()
	body(shard, lo, hi)
}

// goodKernelStage writes only its own range through the closure-free
// runner.
func goodKernelStage(out []int) {
	runKernel(len(out), 4, func(shard, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = shard
		}
	})
}

// badKernelStage writes a fixed slot from every chunk of the
// closure-free runner.
func badKernelStage(out []int) {
	runKernel(len(out), 4, func(shard, lo, hi int) {
		out[0] = lo // want `worker goroutine writes the captured slice at a non-partitioned index out`
	})
}

// unspawnedLiteral never runs on a goroutine: no discipline applies.
func unspawnedLiteral(out []int) {
	write := func() { out[0] = 1 }
	write()
}
