package dist

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/graph"
)

// Faults attaches a deterministic fault-injection schedule to a run
// (RunOpts.Faults): a message-perturbation plan (drop / duplicate /
// delay, decided per message by fault.Plan) plus a crash schedule
// mapping node IDs to the round at which they fail-stop. A nil *Faults keeps the zero-cost
// delivery path; a non-nil plan is consulted once per queued message
// copy at the round boundary, by the shared routing walk at global
// (round, sender index, queue position) coordinates, so the schedule is
// identical for every range count and runtime.
//
// Semantics in the round-synchronous LOCAL model:
//
//   - Delay is absorbed: a synchronous round is only complete once every
//     message of the round has arrived, so a link delay of d rounds does
//     not change what is delivered or when — it lengthens the round. The
//     engine charges it as synchronizer stall time (per round, the max
//     delay over the round's messages) in Result.Stall.
//   - Duplication delivers one extra copy at the adjacent queue position.
//     Well-behaved protocols (flooding dedup, correction-phase seen-sets)
//     absorb it; outputs must stay byte-identical.
//   - Drop removes the message entirely. Protocols built for the
//     failure-free model are expected to corrupt or diverge — loudly
//     (cross-checks downstream turn this into diagnosable errors) — and
//     FloodRetrans exists to tolerate it.
//   - A node crashed at round r executes steps 0..r-1 (Init is step 0)
//     and nothing afterwards; messages queued to it from step r-1 onwards
//     (i.e. delivered at step r or later) become dead letters. If the
//     run can no longer terminate because every live node is Done but a
//     crashed node is not, Run fails with an error naming the node.
type Faults struct {
	// Plan decides per-message drop/dup/delay actions.
	Plan fault.Plan
	// Crash maps a node ID to the first step it does NOT execute
	// (crash at round 0 means the node never even runs Init).
	Crash map[graph.ID]int

	// Spec and Seed record the ParseFaults inputs that produced this
	// schedule. The partitioned runtime ships them to shard processes,
	// which re-parse the spec locally — the schedule is a pure function
	// of (Spec, Seed), so both sides decide identically. Hand-built
	// Faults values leave Spec empty and cannot be partitioned.
	Spec string
	Seed uint64
}

// active reports whether the schedule can perturb anything.
func (f *Faults) active() bool {
	return f != nil && (f.Plan.Perturbs() || len(f.Crash) > 0)
}

// ErrFaultsInactive reports a fault spec that parsed successfully but
// describes a schedule that can never perturb anything: every rate is
// zero and no crash is listed. An empty spec is the documented
// "no plan requested" case and does NOT produce this error; a non-empty
// inert spec almost always is a misconfiguration (a typo'd rate of 0.0
// would otherwise silently run a fault-free "chaos" experiment), so
// ParseFaults surfaces it as a typed sentinel that callers match with
// errors.Is or the IsInactive helper.
var ErrFaultsInactive = errors.New("fault spec is inactive: all rates zero and no crashes")

// IsInactive reports whether err is (or wraps) ErrFaultsInactive.
func IsInactive(err error) bool { return errors.Is(err, ErrFaultsInactive) }

// ParseFaults parses a fault spec string (see fault.Parse for the
// grammar) into a Faults plan keyed by seed. An empty (or all-blank)
// spec returns (nil, nil) — no plan requested, the engine's fast path.
// A non-empty spec that parses to a schedule which cannot perturb
// anything returns (nil, ErrFaultsInactive) so callers can distinguish
// "no plan requested" from "plan parsed empty" and fail loudly on
// misconfiguration.
func ParseFaults(spec string, seed uint64) (*Faults, error) {
	plan, crash, err := fault.Parse(spec, seed)
	if err != nil {
		return nil, err
	}
	f := &Faults{Plan: plan, Spec: spec, Seed: seed}
	if len(crash) > 0 {
		f.Crash = make(map[graph.ID]int, len(crash))
		for id, r := range crash {
			f.Crash[graph.ID(id)] = r
		}
	}
	if !f.active() {
		if isBlank(spec) {
			return nil, nil
		}
		return nil, fmt.Errorf("fault: %q: %w", spec, ErrFaultsInactive)
	}
	return f, nil
}

// isBlank reports whether a spec requests nothing at all (empty or
// whitespace), mirroring fault.Parse's empty-spec fast path.
func isBlank(spec string) bool {
	for _, c := range spec {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return false
		}
	}
	return true
}

// FaultStats summarizes the fault events of one round boundary. A stats
// value is only reported (via RoundObserver.FaultRound) when at least
// one field is non-zero.
type FaultStats struct {
	// Round matches RoundStats.Round: 0 for the Init step, then the
	// 1-based communication round whose outboxes were delivered.
	Round int
	// Dropped / Duplicated count messages removed / doubled this round.
	Dropped    int
	Duplicated int
	// DeadLetters counts messages addressed to already-crashed nodes.
	DeadLetters int
	// Stall is the synchronizer stall charged this round: the maximum
	// link delay over the round's delivered messages.
	Stall int
	// Crashed lists the nodes that crashed at this step, in ID order.
	Crashed []graph.ID
}

func (fs *FaultStats) any() bool {
	return fs.Dropped != 0 || fs.Duplicated != 0 || fs.DeadLetters != 0 ||
		fs.Stall != 0 || len(fs.Crashed) != 0
}
