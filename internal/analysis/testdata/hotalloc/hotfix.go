// Package hotfix seeds hot paths with committed allocation budgets:
// roots at their exact budget stay silent, over- and under-budget
// regions and malformed directives are reported, coldpath annotations
// prune fallbacks, and a coldpath directive no hot path reaches is
// reported as stale.
package hotfix

import "sync"

// okRoot stays within budget: the 3-arg make is the region's only
// counted site — the appends into it carry prealloc evidence.
//
//chordalvet:hotpath budget=1 scratch-reuse kernel stand-in
func okRoot(n int) []int {
	buf := make([]int, 0, n)
	for i := 0; i < n; i++ {
		buf = append(buf, i)
	}
	return buf
}

//chordalvet:hotpath budget=1 over budget through a static callee // want `hot path overRoot has 3 reachable allocation sites, over its budget of 1`
func overRoot(n int) map[int][]int {
	m := make(map[int][]int)
	fill(m, n)
	return m
}

// fill contributes two sites to every hot region that reaches it: the
// slice literal and the growing append.
func fill(m map[int][]int, n int) {
	seed := []int{1, 2, 3}
	var out []int
	out = append(out, seed...)
	m[n] = out
}

// prunedRoot calls an annotated cold fallback; its allocation sites do
// not count against the budget.
//
//chordalvet:hotpath budget=1 cold helper pruned from the region
func prunedRoot(n int) []int {
	buf := make([]int, 0, n)
	return coldBuild(buf)
}

// coldBuild is the materializing fallback: allowed to allocate.
//
//chordalvet:coldpath rare fallback materialization, amortized away
func coldBuild(buf []int) []int {
	extra := map[int]int{0: 1}
	for k := range extra {
		buf = append(buf, k)
	}
	return buf
}

// spawnRoot reaches the worker literal over the goroutine edge: the
// capturing closure is one site, the worker's make is the second.
//
//chordalvet:hotpath budget=0 spawn edge traversal // want `hot path spawnRoot has 2 reachable allocation sites, over its budget of 0`
func spawnRoot(res []int) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res[0] = len(make([]byte, 8))
	}()
	wg.Wait()
}

//chordalvet:hotpath budget=lots not a number // want `malformed hotpath directive on badRoot: want //chordalvet:hotpath budget=N`
func badRoot() {}

//chordalvet:hotpath budget=3 slack left behind by a removed site // want `hot path slackRoot has 1 reachable allocation sites, under its budget of 3 — lower the budget to 1`
func slackRoot(n int) []int {
	return make([]int, n)
}

// staleCold is annotated cold, but no hot root calls it.
//
//chordalvet:coldpath nothing hot reaches this // want `coldpath directive on staleCold prunes nothing: no hot path reaches it`
func staleCold() map[int]int {
	return map[int]int{}
}

// run is a closure-free runner shared by a hot root and a cold caller:
// the callback each passes is that caller's own edge, so the cold
// caller's allocating body stays out of the hot region.
func run(n int, body func(lo, hi int)) {
	body(0, n)
}

// sharedHot's only site is its capturing callback.
//
//chordalvet:hotpath budget=1 shared runner: only this root's callback counts
func sharedHot(out []int) {
	run(len(out), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = i
		}
	})
}

// coldCaller hands the same runner an allocating callback.
func coldCaller(n int) int {
	total := 0
	run(n, func(lo, hi int) {
		total += len(make(map[int]int, hi-lo))
	})
	return total
}
