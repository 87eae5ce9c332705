package dist

import (
	"errors"

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
	return nil
}

// Step implements ShardLink.
func (l *LocalLink) Step(round int) (*ShardStepResult, error) {
	if l.runner == nil {
		return nil, errLinkNotStarted
	}
	return l.runner.Step(round), nil
}

// Deliver implements ShardLink.
func (l *LocalLink) Deliver(round int, blocks [][]byte) (int, error) {
	if l.runner == nil {
		return 0, errLinkNotStarted
	}
	return l.runner.Deliver(round, blocks)
}

// Outputs implements ShardLink.
func (l *LocalLink) Outputs() ([][]byte, error) {
	if l.runner == nil {
		return nil, errLinkNotStarted
	}
	return l.runner.Outputs()
}

// Close implements ShardLink.
func (l *LocalLink) Close() error {
	l.runner = nil
	return nil
}

var errLinkNotStarted = errors.New("dist: link used before Start")
