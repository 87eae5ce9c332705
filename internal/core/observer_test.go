package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
)

// countingObserver implements every method of dist.RoundObserver and
// counts its calls by method name. Shard callbacks arrive from worker
// goroutines, so the counts sit behind a mutex.
type countingObserver struct {
	mu    sync.Mutex
	calls map[string]int
}

var _ dist.RoundObserver = (*countingObserver)(nil)

func (o *countingObserver) count(method string) {
	o.mu.Lock()
	o.calls[method]++
	o.mu.Unlock()
}

func (o *countingObserver) SetPhase(string)             { o.count("SetPhase") }
func (o *countingObserver) RoundStart(int, int)         { o.count("RoundStart") }
func (o *countingObserver) ShardStart(int)              { o.count("ShardStart") }
func (o *countingObserver) ShardEnd(int)                { o.count("ShardEnd") }
func (o *countingObserver) FaultRound(dist.FaultStats)  { o.count("FaultRound") }
func (o *countingObserver) WireRound(int, int64, int64) { o.count("WireRound") }
func (o *countingObserver) RoundEnd(dist.RoundStats)    { o.count("RoundEnd") }
func (o *countingObserver) RunEnd(int)                  { o.count("RunEnd") }
func (o *countingObserver) KernelStart(string, int)     { o.count("KernelStart") }
func (o *countingObserver) KernelShardStart(int)        { o.count("KernelShardStart") }
func (o *countingObserver) KernelShardEnd(int, int)     { o.count("KernelShardEnd") }
func (o *countingObserver) KernelEnd()                  { o.count("KernelEnd") }

// TestObserverContractFiresEveryMethod: one observer attached to a
// partitioned coloring run under dup and delay sees every callback of
// the one observer contract: phase labels, rounds and their range
// brackets (the decide stage's), fault rounds, run ends and kernel
// spans. WireRound is the exception: LocalLink is unmetered, and
// internal/wire's TestServedLinksMatchLocal requires one WireRound per
// round of a metered run.
func TestObserverContractFiresEveryMethod(t *testing.T) {
	g := gen.RandomChordal(100, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 13)
	f, err := dist.ParseFaults("dup=0.3,delay=2", 29)
	if err != nil {
		t.Fatal(err)
	}
	o := &countingObserver{calls: make(map[string]int)}
	if _, err := ColorChordalDistributedFaultyPart(g, 0.5, o, nil, f, dist.NewLocalPartition(graph.NewIndexed(g), 2)); err != nil {
		t.Fatal(err)
	}
	contract := reflect.TypeOf((*dist.RoundObserver)(nil)).Elem()
	for i := 0; i < contract.NumMethod(); i++ {
		name := contract.Method(i).Name
		switch got := o.calls[name]; {
		case name == "WireRound" && got != 0:
			t.Errorf("WireRound fired %d times on an unmetered partition", got)
		case name != "WireRound" && got == 0:
			t.Errorf("%s never fired", name)
		}
	}
}
