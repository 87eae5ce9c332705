package dist

import (
	"fmt"

	"repro/internal/graph"
)

// LocalLink hosts a ShardRunner in-process behind the ShardLink
// interface. It is the partitioned runtime's reference transport: every
// codec and ordering rule is exercised without sockets, so the equality
// tests against the LOCAL engine, in this package and in core, isolate
// the runtime's semantics from the wire. Only those tests build it,
// through NewLocalPartition; the CLIs partition over shard-host
// processes. It deliberately does not implement WireMeter: no bytes
// move.
type LocalLink struct {
	ix     *graph.Indexed
	runner *ShardRunner

	stepRes   *ShardStepResult
	deliverHi int
	deliverEr error
	delivered bool
}

// NewLocalPartition builds an all-in-process partition of ix into parts
// shards, hosting SplitRange's chunks of the BFS order.
func NewLocalPartition(ix *graph.Indexed, parts int) *Partition {
	ranges := SplitRange(ix.NumNodes(), parts)
	p := &Partition{Ranges: ranges}
	for range ranges {
		p.Links = append(p.Links, &LocalLink{ix: ix})
	}
	return p
}

// Start implements ShardLink.
func (l *LocalLink) Start(cfg ShardConfig) error {
	r, err := NewShardRunner(l.ix, cfg)
	if err != nil {
		return err
	}
	l.runner = r
	l.stepRes = nil
	l.delivered = false
	return nil
}

// Step implements ShardLink. The work runs synchronously here; the
// begin/await split only matters for transports that pipeline.
func (l *LocalLink) Step(round int) error {
	if l.runner == nil {
		return fmt.Errorf("dist: link used before Start")
	}
	l.stepRes = l.runner.Step(round)
	return nil
}

// StepResult implements ShardLink.
func (l *LocalLink) StepResult() (*ShardStepResult, error) {
	if l.stepRes == nil {
		return nil, fmt.Errorf("dist: StepResult without a preceding Step")
	}
	res := l.stepRes
	l.stepRes = nil
	return res, nil
}

// Deliver implements ShardLink.
func (l *LocalLink) Deliver(round int, blocks [][]byte) error {
	if l.runner == nil {
		return fmt.Errorf("dist: link used before Start")
	}
	l.deliverHi, l.deliverEr = l.runner.Deliver(blocks)
	l.delivered = true
	return nil
}

// DeliverResult implements ShardLink.
func (l *LocalLink) DeliverResult() (int, error) {
	if !l.delivered {
		return 0, fmt.Errorf("dist: DeliverResult without a preceding Deliver")
	}
	l.delivered = false
	return l.deliverHi, l.deliverEr
}

// Outputs implements ShardLink.
func (l *LocalLink) Outputs() ([][]byte, error) {
	if l.runner == nil {
		return nil, fmt.Errorf("dist: link used before Start")
	}
	return l.runner.Outputs()
}

// Close implements ShardLink.
func (l *LocalLink) Close() error {
	l.runner = nil
	return nil
}
