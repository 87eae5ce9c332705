package dist

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/fault"
	"repro/internal/graph"
)

// This file is the round kernel both runtimes execute: the LOCAL Engine
// (every node range in one process) and the partitioned
// ShardRunner/Coordinator (one range per shard). It holds the only code
// that runs node programs (nodeRange.step), the fail-stop crash table,
// the sender-order routing walk in which the fault schedule is decided,
// and the synchronous run loop. LOCAL and partitioned runs are
// byte-identical because they run this code, not two copies of it.

// nodeRange is one contiguous range of a run's nodes, starting at
// global snapshot index lo: the nodes' protocols, contexts and Done
// flags by offset from lo, the range's Done count, and its error slot.
type nodeRange struct {
	lo        int
	progs     []Protocol
	ctxs      []Context
	done      []bool
	doneCount int
	// quiescent is true when every protocol of the range implements
	// Quiescent, so empty-inbox Round calls can be skipped.
	quiescent bool
	// err is the node-program panic that aborted the range's last step.
	err error
}

// newNodeRange wraps progs, the protocols of global indices lo, lo+1,
// …, into a range, filling ctxs (one per protocol) with their network
// contexts. done holds the range's Done flags, all false; round is the
// step counter the contexts report.
func newNodeRange(ix *graph.Indexed, lo int, progs []Protocol, ctxs []Context, done []bool, round *int32) nodeRange {
	r := nodeRange{lo: lo, progs: progs, ctxs: ctxs, done: done, quiescent: len(progs) > 0}
	for j, p := range progs {
		i := lo + j
		ctxs[j] = Context{
			id:     ix.IDOf(i),
			idx:    int32(i),
			nbrIDs: ix.NeighborIDs(i),
			nbrIdx: ix.NeighborIndices(i),
			ix:     ix,
			round:  round,
		}
		if _, ok := p.(Quiescent); !ok {
			r.quiescent = false
		}
	}
	return r
}

// step runs step round (0 = Init) on every live node of the range in
// index order: Init, or Round with the node's inbox (by offset from lo),
// truncated as it is consumed so delivery never needs a truncation
// pass. Crashed nodes (dead, by global index; nil without crashes) are
// skipped, and so are empty-inbox nodes of a quiescent range, whose call
// would be a no-op. Done transitions update the range's count. A
// panicking node program aborts the rest of the range into r.err, so
// the error a step reports is always its lowest-index failure.
//
//chordalvet:hotpath budget=0 shared range step: runs every node program of both runtimes
func (r *nodeRange) step(round int, inbox [][]Message, dead []bool) {
	defer r.recoverPanic()
	for j, p := range r.progs {
		if dead != nil && dead[r.lo+j] {
			continue
		}
		if round == 0 {
			p.Init(&r.ctxs[j])
		} else {
			in := inbox[j]
			if r.quiescent && len(in) == 0 {
				continue
			}
			inbox[j] = in[:0]
			p.Round(&r.ctxs[j], in)
		}
		if d := p.Done(); d != r.done[j] {
			r.done[j] = d
			if d {
				r.doneCount++
			} else {
				r.doneCount--
			}
		}
	}
}

// recoverPanic turns a node-program panic into the range's error. A
// worker must return normally, or the engine's WaitGroup would hang.
func (r *nodeRange) recoverPanic() {
	if rec := recover(); rec != nil {
		r.err = fmt.Errorf("dist: node program panicked: %v", rec)
	}
}

// crashTable is a run's fail-stop schedule in snapshot-index space. The
// engine consults it for every node, a shard runner for its range and
// its dead letters, the coordinator for the per-round Crashed lists.
// Without a crash schedule at and dead are nil and every method is
// inert.
type crashTable struct {
	ix *graph.Indexed
	// at[i] is the first step node i does not execute (-1 = never);
	// dead[i] flips once that step is reached.
	at   []int
	dead []bool
}

// newCrashTable validates f's crash schedule against ix and builds the
// table.
func newCrashTable(ix *graph.Indexed, f *Faults) (crashTable, error) {
	t := crashTable{ix: ix}
	if !f.active() || len(f.Crash) == 0 {
		return t, nil
	}
	t.at = make([]int, ix.NumNodes())
	for i := range t.at {
		t.at[i] = -1
	}
	t.dead = make([]bool, len(t.at))
	for v, r := range f.Crash {
		i, ok := ix.IndexOf(v)
		if !ok {
			return crashTable{}, fmt.Errorf("dist: fault plan crashes node %d, which is not a node of the network", v)
		}
		t.at[i] = r
	}
	return t, nil
}

// mark flips the nodes whose crash step is step into the dead set and
// returns them in ID order (nil when none).
func (t *crashTable) mark(step int) []graph.ID {
	var crashed []graph.ID
	for i, r := range t.at {
		if r == step {
			t.dead[i] = true
			crashed = append(crashed, t.ix.IDOf(i))
		}
	}
	slices.Sort(crashed)
	return crashed
}

// deadLetter reports whether a copy queued to node to in step round is
// never read: it is delivered at step round+1, and to crashes at or
// before that step.
func (t *crashTable) deadLetter(to int32, round int) bool {
	return t.at != nil && t.at[to] >= 0 && t.at[to] <= round+1
}

// blocked diagnoses nodes lo, lo+1, …, whose Done flags are done: how
// many crashed before finishing, the lowest such index (-1 when none),
// and its crash step. The run can never terminate once every node is
// either Done or one of these.
func (t *crashTable) blocked(lo int, done []bool) (deadNotDone int, first int32, step int) {
	first = -1
	if t.dead == nil {
		return 0, first, 0
	}
	for j, d := range done {
		if i := lo + j; t.dead[i] && !d {
			if deadNotDone == 0 {
				first, step = int32(i), t.at[i]
			}
			deadNotDone++
		}
	}
	return deadNotDone, first, step
}

// payloadSize is a payload's volume in Sizer units (1 without Sizer).
func payloadSize(p any) int {
	if s, ok := p.(Sizer); ok {
		return s.PayloadSize()
	}
	return 1
}

// routeWalk is the sender-order delivery pass of one step, shared by the
// engine's faulty path and the shard runner. It walks the outboxes of
// ctxs, global sender indices lo, lo+1, …, in order, expands every
// Broadcast over the neighbor row, and routes each copy through the
// crash table and the fault plan at global (round, sender index, queue
// position) coordinates, positions counted over the expanded sequence.
// sink receives every delivered copy, twice in a row for a duplicate;
// entry numbers the outbox entry a copy came from, so sinks can share
// per-entry work. Drops, duplicates, dead letters and stall go to fs and
// delivered copies to msgs/vol, all charged sender-side. The outboxes
// are reset.
func routeWalk(ctxs []Context, lo, round int, f *Faults, crash *crashTable, fs *FaultStats,
	sink func(from int, to int32, msg Message, entry int)) (msgs, vol int) {
	var plan fault.Plan
	perturb := f != nil && f.Plan.Perturbs()
	if perturb {
		plan = f.Plan
	}
	var one [1]int32
	entry := 0
	for j := range ctxs {
		c := &ctxs[j]
		sender := lo + j
		pos := 0
		for k, msg := range c.outbox {
			sz := payloadSize(msg.Payload)
			targets := c.nbrIdx
			if to := c.targets[k]; to >= 0 {
				one[0] = to
				targets = one[:]
			}
			for _, to := range targets {
				p := pos
				pos++
				if crash.deadLetter(to, round) {
					fs.DeadLetters++
					continue
				}
				var act fault.Action
				if perturb {
					act = plan.Decide(round, sender, p)
				}
				if act.Drop {
					fs.Dropped++
					continue
				}
				if act.Delay > fs.Stall {
					fs.Stall = act.Delay
				}
				copies := 1
				if act.Dup {
					fs.Duplicated++
					copies = 2
				}
				for range copies {
					sink(sender, to, msg, entry)
					msgs++
					vol += sz
				}
			}
			entry++
		}
		c.outbox = c.outbox[:0]
		c.targets = c.targets[:0]
	}
	return msgs, vol
}

// chargeStep adds one delivered step's message counters and fault
// counters to res, and reports the fault counters to a FaultObserver
// when the schedule did something this step.
func chargeStep(obs RoundObserver, res *Result, msgs, vol int, fs *FaultStats) {
	res.Messages += msgs
	res.Volume += vol
	if !fs.any() {
		return
	}
	res.Dropped += fs.Dropped
	res.Duplicated += fs.Duplicated
	res.DeadLetters += fs.DeadLetters
	res.Stall += fs.Stall
	if fo, ok := obs.(FaultObserver); ok {
		fo.FaultRound(*fs)
	}
}

// stepState is what the run loop needs from one executed step: the
// number of Done nodes and the crash-blocked diagnosis of
// crashTable.blocked over all nodes.
type stepState struct {
	done, deadNotDone int
	blockedIdx        int32
	blockedRound      int
}

// stepper is one runtime as the run loop drives it.
type stepper interface {
	// start validates the run configuration, builds the per-run state
	// and returns the run's crash table. It runs before RunStart.
	start() (*crashTable, error)
	// step executes step round (0 = Init) and delivers its messages,
	// adding its counters to res; crashed lists the nodes that crash at
	// this step, in ID order.
	step(round int, crashed []graph.ID, res *Result) (stepState, error)
	// finish collects the outputs into res after the final step.
	finish(res *Result) error
}

// runLoop executes a run until every node is Done, or fails after
// maxRounds rounds: the synchronous LOCAL round sequence both
// Engine.Run and Coordinator.Run drive. name ("Engine", "Coordinator")
// labels the Run-twice error; ran guards the single run a runtime gets,
// since protocols hold terminal state afterwards. The crash-blocked
// check precedes the maxRounds check, so a run that can no longer
// finish is diagnosed as such rather than as a timeout.
func runLoop(name string, ran *bool, ix *graph.Indexed, obs RoundObserver, maxRounds int, s stepper) (*Result, error) {
	if *ran {
		return nil, fmt.Errorf("dist: %s.Run called twice; protocol state is terminal after a run — build a new %s", name, strings.ToLower(name))
	}
	*ran = true
	crash, err := s.start()
	if err != nil {
		return nil, err
	}
	n := ix.NumNodes()
	if obs != nil {
		obs.RunStart(n, ix.NumEdges())
	}
	res := &Result{}
	st, err := s.step(0, crash.mark(0), res)
	for err == nil && st.done != n {
		if st.deadNotDone > 0 && st.done+st.deadNotDone == n {
			return nil, fmt.Errorf("dist: node %d crashed at round %d and cannot finish; all surviving nodes are done",
				ix.IDOf(int(st.blockedIdx)), st.blockedRound)
		}
		if res.Rounds >= maxRounds {
			return nil, fmt.Errorf("protocol did not terminate within %d rounds", maxRounds)
		}
		res.Rounds++
		st, err = s.step(res.Rounds, crash.mark(res.Rounds), res)
	}
	if err == nil {
		err = s.finish(res)
	}
	if err != nil {
		return nil, err
	}
	if obs != nil {
		obs.RunEnd(res.Rounds)
	}
	return res, nil
}
