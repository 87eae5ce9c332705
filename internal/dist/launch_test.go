package dist

import (
	"sync"
	"testing"

	"repro/internal/proctest"
)

// spanRecorder is an observer recording one launch's span.
type spanRecorder struct {
	nopObserver
	mu             sync.Mutex
	starts, ends   int
	kernel         string
	shards         int
	items          map[int]int // by shard, set at KernelShardEnd
	open, reopened int
}

func (r *spanRecorder) KernelStart(kernel string, shards int) {
	r.starts++
	r.kernel, r.shards = kernel, shards
	r.items = make(map[int]int)
}

func (r *spanRecorder) KernelShardStart(int) {
	r.mu.Lock()
	r.open++
	r.mu.Unlock()
}

func (r *spanRecorder) KernelShardEnd(shard, items int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.open--
	if _, dup := r.items[shard]; dup {
		r.reopened++
	}
	r.items[shard] = items
}

func (r *spanRecorder) KernelEnd() { r.ends++ }

// TestRunKernelSplit pins the launcher's arithmetic at GOMAXPROCS 1 to 5
// for n from 0 to past the proc count: the chunks cover [0, n) exactly
// once as the contiguous ⌈n/w⌉ split with w = min(GOMAXPROCS, n), their
// count is KernelShards(n), the span reports that count and items
// summing to n, and n = 0 runs nothing and emits no span.
func TestRunKernelSplit(t *testing.T) {
	for procs := 1; procs <= 5; procs++ {
		proctest.With(procs, func() {
			for n := 0; n <= 2*procs+3; n++ {
				shards := KernelShards(n)
				rec := &spanRecorder{}
				var mu sync.Mutex
				ranges := make(map[int][2]int)
				calls := 0
				RunKernel("split", n, shards, rec, func(shard, lo, hi int) {
					mu.Lock()
					defer mu.Unlock()
					calls++
					ranges[shard] = [2]int{lo, hi}
				})
				if n == 0 {
					if shards != 0 || calls != 0 || rec.starts != 0 || rec.ends != 0 {
						t.Fatalf("procs=%d n=0: shards=%d calls=%d spans=%d/%d, want nothing", procs, shards, calls, rec.starts, rec.ends)
					}
					continue
				}
				w := min(procs, n)
				chunk := (n + w - 1) / w
				if calls != shards || len(ranges) != shards {
					t.Fatalf("procs=%d n=%d: %d calls over %d shard indices, want KernelShards=%d", procs, n, calls, len(ranges), shards)
				}
				covered := make([]int, n)
				for s := 0; s < shards; s++ {
					r, ok := ranges[s]
					want := [2]int{s * chunk, min(s*chunk+chunk, n)}
					if !ok || r != want {
						t.Fatalf("procs=%d n=%d: shard %d ran %v, want %v", procs, n, s, r, want)
					}
					for i := r[0]; i < r[1]; i++ {
						covered[i]++
					}
				}
				for i, c := range covered {
					if c != 1 {
						t.Fatalf("procs=%d n=%d: item %d covered %d times", procs, n, i, c)
					}
				}
				if rec.starts != 1 || rec.ends != 1 || rec.kernel != "split" || rec.shards != shards || rec.open != 0 || rec.reopened != 0 {
					t.Fatalf("procs=%d n=%d: span %+v, want one closed %q launch of %d shards", procs, n, rec, "split", shards)
				}
				sum := 0
				for s := 0; s < shards; s++ {
					if rec.items[s] != ranges[s][1]-ranges[s][0] {
						t.Fatalf("procs=%d n=%d: shard %d reported %d items, ran %v", procs, n, s, rec.items[s], ranges[s])
					}
					sum += rec.items[s]
				}
				if sum != n {
					t.Fatalf("procs=%d n=%d: span items sum to %d", procs, n, sum)
				}
			}
		})
	}
}
