package dist

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/graph"
)

// coordinator drives one partitioned program run over opts.Part
// through the run loop the LOCAL engine uses (runLoop): the same step
// sequence, termination and crash-blocked checks, error strings, and
// per-round RoundStats/FaultStats — so traces, experiment tables, and
// fault plans are byte-identical between LOCAL and partitioned
// execution (only RoundStats.Shards, which describes the schedule and is
// excluded from deterministic trace comparison, reports the shard count
// instead of the engine's range count).
type coordinator struct {
	ix   *graph.Indexed
	opts RunOpts
	// prog is the caller's program, which decodes the shards' outputs;
	// the shards rebuild it from (program, params).
	prog    Program
	program string
	params  []byte

	// Per-link scratch for the run's exchanges, indexed by shard: each
	// call's error, the step results, the deliver acks' inbox high-water
	// marks, and the blocks relayed to each shard, by source shard.
	errs     []error
	results  []*ShardStepResult
	maxInbox []int
	inbound  [][][]byte

	wireIn, wireOut int64
}

// newCoordinator prepares a partitioned run of prog over ix. The
// partition's ranges must cover the BFS positions [0, n) contiguously.
func newCoordinator(ix *graph.Indexed, prog Program, opts RunOpts) (*coordinator, error) {
	part := opts.Part
	links := len(part.Links)
	if links == 0 || links != len(part.Ranges) {
		return nil, fmt.Errorf("dist: partition has %d links for %d ranges", links, len(part.Ranges))
	}
	if err := checkRanges(part.Ranges, ix.NumNodes()); err != nil {
		return nil, err
	}
	program, params, err := prog.Params()
	if err != nil {
		return nil, err
	}
	c := &coordinator{ix: ix, opts: opts, prog: prog, program: program, params: params,
		errs: make([]error, links), results: make([]*ShardStepResult, links),
		maxInbox: make([]int, links), inbound: make([][][]byte, links)}
	for d := range c.inbound {
		c.inbound[d] = make([][]byte, links)
	}
	return c, nil
}

// meterDelta samples every metered link and returns the bytes moved
// since the previous sample.
func (c *coordinator) meterDelta() (dIn, dOut int64, metered bool) {
	var in, out int64
	for _, l := range c.opts.Part.Links {
		if m, ok := l.(WireMeter); ok {
			metered = true
			li, lo := m.WireBytes()
			in += li
			out += lo
		}
	}
	dIn, dOut = in-c.wireIn, out-c.wireOut
	c.wireIn, c.wireOut = in, out
	return dIn, dOut, metered
}

// start implements stepper: it builds the crash table and starts the
// run on every shard, shipping the fault schedule as the (spec, seed)
// pair it is a pure function of.
func (c *coordinator) start() (*crashTable, error) {
	faultSpec, faultSeed := "", uint64(0)
	if f := c.opts.Faults; f.active() {
		faultSpec, faultSeed = f.spec, f.seed
	}
	// The coordinator's crash table only feeds the per-round Crashed
	// lists; the shards consult their own copies.
	crash, err := newCrashTable(c.ix, c.opts.Faults)
	if err != nil {
		return nil, err
	}
	err = exchange(c.opts.Part.Links, c.errs, func(s int, l ShardLink) error {
		return l.Start(ShardConfig{
			Shard: s, Ranges: c.opts.Part.Ranges,
			Program: c.program, Params: c.params,
			FaultSpec: faultSpec, FaultSeed: faultSeed,
		})
	})
	if err != nil {
		return nil, err
	}
	c.meterDelta() // baseline: Start/Session traffic is not a round's
	return &crash, nil
}

// step implements stepper for one partitioned step: Step every shard,
// then relay every block to its destination shard with Deliver. The
// coordinator never reads a block: results[s].Blocks[d] goes to shard d
// as it came from shard s. It aggregates the shard counters into the
// run result and fires the observer exactly like the LOCAL engine's
// step.
func (c *coordinator) step(round int, crashed []graph.ID, res *Result) (stepState, error) {
	obs := c.opts.Observer
	links := c.opts.Part.Links
	st := stepState{blockedIdx: -1}
	if obs != nil {
		obs.RoundStart(round, len(links))
	}
	err := exchange(links, c.errs, func(s int, l ShardLink) error {
		r, err := l.Step(round)
		switch {
		case err != nil:
			return err
		case r.Round != round:
			return fmt.Errorf("dist: shard %d returned the result of round %d for round %d", s, r.Round, round)
		case r.Err == "" && len(r.Blocks) != len(links):
			return fmt.Errorf("dist: shard %d returned %d blocks for %d shards", s, len(r.Blocks), len(links))
		}
		c.results[s] = r
		return nil
	})
	if err != nil {
		return st, err
	}
	// Like the engine over its ranges, report the lowest panicking index
	// over all shards; a failure no node caused (ErrIdx −1) comes first.
	var failed *ShardStepResult
	for _, r := range c.results {
		if r.Err != "" && (failed == nil || r.ErrIdx < failed.ErrIdx) {
			failed = r
		}
	}
	if failed != nil {
		return st, errors.New(failed.Err)
	}

	msgs, vol := 0, 0
	fs := FaultStats{Round: round, Crashed: crashed}
	for _, r := range c.results {
		st.done += r.Done
		st.deadNotDone += r.DeadNotDone
		if r.BlockedIdx >= 0 && (st.blockedIdx < 0 || r.BlockedIdx < st.blockedIdx) {
			st.blockedIdx, st.blockedRound = r.BlockedIdx, r.BlockedRound
		}
		msgs += r.Messages
		vol += r.Volume
		fs.Dropped += r.Dropped
		fs.Duplicated += r.Duplicated
		fs.DeadLetters += r.DeadLetters
		if r.Stall > fs.Stall {
			fs.Stall = r.Stall
		}
	}

	err = exchange(links, c.errs, func(d int, l ShardLink) error {
		in := c.inbound[d]
		for s, r := range c.results {
			in[s] = r.Blocks[d]
		}
		mi, err := l.Deliver(round, in)
		c.maxInbox[d] = mi
		return err
	})
	if err != nil {
		return st, err
	}

	chargeStep(obs, res, msgs, vol, &fs)
	if obs != nil {
		if dIn, dOut, metered := c.meterDelta(); metered {
			obs.WireRound(round, dIn, dOut)
		}
		obs.RoundEnd(RoundStats{
			Round:    round,
			Nodes:    c.ix.NumNodes(),
			Shards:   len(links),
			Messages: msgs,
			Volume:   vol,
			Done:     st.done,
			MaxInbox: slices.Max(c.maxInbox),
		})
	}
	return st, nil
}

// exchange sends one request to every link: call runs once per link,
// each on a goroutine of its own, and exchange returns once every call
// has returned — with its reply read or its error — so a failure never
// leaves a reply queued on a link for the next run to misread. A link
// that blocks holds up only the exchange, never another link's reply.
// errs is the calls' scratch, one slot per link. It returns the lowest
// shard's error.
func exchange(links []ShardLink, errs []error, call func(s int, l ShardLink) error) error {
	var wg sync.WaitGroup
	wg.Add(len(links))
	for s, l := range links {
		go callLink(call, s, l, &errs[s], &wg)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// callLink runs call on link s and stores its error in *err, then
// signals wg. Spawning this named function with explicit arguments, as
// RunKernel spawns runKernelShard, keeps exchange free of a capturing
// closure.
func callLink(call func(s int, l ShardLink) error, s int, l ShardLink, err *error, wg *sync.WaitGroup) {
	defer wg.Done()
	*err = call(s, l)
}

// finish implements stepper: gather every shard's outputs, then decode
// them with the caller's program on the driving goroutine, in shard
// order, by snapshot index. Shard s returns the outputs of BFS
// positions Ranges[s] in order, its local offsets.
func (c *coordinator) finish() ([]any, error) {
	shardOuts := make([][][]byte, len(c.opts.Part.Links))
	err := exchange(c.opts.Part.Links, c.errs, func(s int, l ShardLink) error {
		data, err := l.Outputs()
		shardOuts[s] = data
		return err
	})
	if err != nil {
		return nil, err
	}
	outs := make([]any, c.ix.NumNodes())
	order := c.ix.BFSOrder()
	for s, data := range shardOuts {
		rg := c.opts.Part.Ranges[s]
		if len(data) != int(rg.Hi-rg.Lo) {
			return nil, fmt.Errorf("dist: shard %d returned %d outputs for BFS positions [%d, %d)", s, len(data), rg.Lo, rg.Hi)
		}
		for j, d := range data {
			i := int(order[int(rg.Lo)+j])
			out, err := c.prog.DecodeOutput(i, d)
			if err != nil {
				return nil, fmt.Errorf("dist: output decoding failed for index %d: %w", i, err)
			}
			outs[i] = out
		}
	}
	return outs, nil
}
