package dist

import (
	"errors"
	"fmt"

	"repro/internal/graph"
)

// Coordinator drives one partitioned program run over a Partition
// through the run loop the LOCAL engine uses (runLoop): the same step
// sequence, termination and crash-blocked checks, error strings, and
// per-round RoundStats/FaultStats — so traces, experiment tables, and
// fault plans are byte-identical between LOCAL and partitioned
// execution (only RoundStats.Shards, which describes the schedule and is
// excluded from deterministic trace comparison, reports the shard count
// instead of the engine's range count).
type Coordinator struct {
	ix      *graph.Indexed
	part    *Partition
	program string
	params  []byte

	// Observer, Faults, and SkipOutputs mirror the Engine fields of the
	// same names.
	Observer    RoundObserver
	Faults      *Faults
	SkipOutputs bool

	prog Program

	outByIdx []any
	ran      bool

	wireIn, wireOut int64
}

// NewCoordinator prepares a partitioned run of the named program over
// ix. The partition's ranges must cover [0, n) contiguously. The
// program is instantiated coordinator-side too — with the exact
// (params, snapshot) every shard receives — to decode outputs.
func NewCoordinator(ix *graph.Indexed, part *Partition, program string, params []byte) (*Coordinator, error) {
	n := int32(ix.NumNodes())
	if len(part.Links) == 0 || len(part.Links) != len(part.Ranges) {
		return nil, fmt.Errorf("dist: partition has %d links for %d ranges", len(part.Links), len(part.Ranges))
	}
	want := int32(0)
	for s, rg := range part.Ranges {
		if rg.Lo != want || rg.Hi <= rg.Lo {
			return nil, fmt.Errorf("dist: partition range %d is [%d, %d), want contiguous from %d", s, rg.Lo, rg.Hi, want)
		}
		want = rg.Hi
	}
	if want != n {
		return nil, fmt.Errorf("dist: partition covers [0, %d), snapshot has %d nodes", want, n)
	}
	prog, err := NewProgram(program, ix, params)
	if err != nil {
		return nil, err
	}
	return &Coordinator{ix: ix, part: part, program: program, params: params, prog: prog}, nil
}

// meterDelta samples every metered link and returns the bytes moved
// since the previous sample.
func (c *Coordinator) meterDelta() (dIn, dOut int64, metered bool) {
	var in, out int64
	for _, l := range c.part.Links {
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

// Run executes the partitioned program until every node is Done, or
// fails after maxRounds rounds.
func (c *Coordinator) Run(maxRounds int) (*Result, error) {
	return runLoop("Coordinator", &c.ran, c.ix, c.Observer, maxRounds, c)
}

// start implements stepper: it rejects hand-built fault plans that did
// not come from ParseFaults — without the (Spec, Seed) pair the
// schedule cannot be reproduced on the shards — builds the crash table,
// and starts the run on every shard.
func (c *Coordinator) start() (*crashTable, error) {
	faultSpec, faultSeed := "", uint64(0)
	if f := c.Faults; f.active() {
		if f.Spec == "" {
			return nil, fmt.Errorf("dist: partitioned runs need a ParseFaults-built schedule (hand-built Faults carry no spec to ship to shards)")
		}
		faultSpec, faultSeed = f.Spec, f.Seed
	}
	// The coordinator's crash table only feeds the per-round Crashed
	// lists; the shards consult their own copies.
	crash, err := newCrashTable(c.ix, c.Faults)
	if err != nil {
		return nil, err
	}
	for s, l := range c.part.Links {
		err := l.Start(ShardConfig{
			Lo: c.part.Ranges[s].Lo, Hi: c.part.Ranges[s].Hi,
			Program: c.program, Params: c.params,
			FaultSpec: faultSpec, FaultSeed: faultSeed,
		})
		if err != nil {
			return nil, err
		}
	}
	c.meterDelta() // baseline: Start/Session traffic is not a round's
	return &crash, nil
}

// step implements stepper for one partitioned step: broadcast Step to
// every shard, await results in shard order, route the cross-shard
// blocks, deliver, and await the inbox high-water acks. It aggregates
// the shard counters into the run result and fires the observer exactly
// like the LOCAL engine's step.
func (c *Coordinator) step(round int, crashed []graph.ID, res *Result) (stepState, error) {
	obs := c.Observer
	links := c.part.Links
	st := stepState{blockedIdx: -1}
	if obs != nil {
		obs.RoundStart(round, len(links))
	}
	for _, l := range links {
		if err := l.Step(round); err != nil {
			return st, err
		}
	}
	results := make([]*ShardStepResult, len(links))
	var failure error
	for s, l := range links {
		r, err := l.StepResult()
		if err != nil {
			return st, err
		}
		if r.Err != "" && failure == nil {
			failure = errors.New(r.Err)
		}
		results[s] = r
	}
	if failure != nil {
		return st, failure
	}

	msgs, vol := 0, 0
	fs := FaultStats{Round: round, Crashed: crashed}
	for _, r := range results {
		st.done += r.Done
		st.deadNotDone += r.DeadNotDone
		if r.BlockedIdx >= 0 && st.blockedIdx < 0 {
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

	// Route: for each destination shard, concatenate the per-source
	// blocks in shard order. Source blocks are in sender order and
	// shards are ascending contiguous ranges, so each destination
	// receives its copies in global sender order.
	route := make([][]PartMsg, len(links))
	for _, r := range results {
		for _, m := range r.Msgs {
			d := c.part.shardOf(m.To)
			route[d] = append(route[d], m)
		}
	}
	for s, l := range links {
		if err := l.Deliver(round, route[s]); err != nil {
			return st, err
		}
	}
	maxInbox := 0
	for _, l := range links {
		mi, err := l.DeliverResult()
		if err != nil {
			return st, err
		}
		if mi > maxInbox {
			maxInbox = mi
		}
	}

	chargeStep(obs, res, msgs, vol, &fs)
	if obs != nil {
		if wo, ok := obs.(WireObserver); ok {
			if dIn, dOut, metered := c.meterDelta(); metered {
				wo.WireRound(round, dIn, dOut)
			}
		}
		obs.RoundEnd(RoundStats{
			Round:    round,
			Nodes:    c.ix.NumNodes(),
			Shards:   len(links),
			Messages: msgs,
			Volume:   vol,
			Done:     st.done,
			MaxInbox: maxInbox,
		})
	}
	return st, nil
}

// finish implements stepper: gather and decode every shard's outputs.
func (c *Coordinator) finish(res *Result) error {
	n := c.ix.NumNodes()
	c.outByIdx = make([]any, n)
	for s, l := range c.part.Links {
		data, err := l.Outputs()
		if err != nil {
			return err
		}
		rg := c.part.Ranges[s]
		if len(data) != int(rg.Hi-rg.Lo) {
			return fmt.Errorf("dist: shard %d returned %d outputs for range [%d, %d)", s, len(data), rg.Lo, rg.Hi)
		}
		for j, d := range data {
			out, err := c.prog.DecodeOutput(int(rg.Lo)+j, d)
			if err != nil {
				return fmt.Errorf("dist: output decoding failed for index %d: %w", int(rg.Lo)+j, err)
			}
			c.outByIdx[int(rg.Lo)+j] = out
		}
	}
	if !c.SkipOutputs {
		res.Outputs = make(map[graph.ID]any, n)
		for i, v := range c.ix.IDs() {
			res.Outputs[v] = c.outByIdx[i]
		}
	}
	return nil
}

// OutputsByIndex returns every node's decoded output by snapshot index.
// Valid after a successful Run, regardless of SkipOutputs.
func (c *Coordinator) OutputsByIndex() []any { return c.outByIdx }
