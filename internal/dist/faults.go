package dist

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// Faults is a deterministic fault-injection schedule for a run
// (RunOpts.Faults): message perturbations — drop, duplication and
// per-edge delivery delay — plus a crash schedule mapping node IDs to
// the round at which they fail-stop. ParseFaults is the only way to
// build one, so every schedule is a pure function of its (spec, seed)
// pair: the partitioned runtime ships the pair to the shard hosts,
// which re-parse it and decide identically. A nil *Faults keeps the
// zero-cost delivery path; a non-nil schedule is consulted once per
// queued message copy at the round boundary, by the shared routing walk
// at global (round, sender index, queue position) coordinates, so it is
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
//
// Randomness comes from a private SplitMix64 finalizer chained over the
// decision coordinates rather than from math/rand, both to keep the
// schedule a stateless function and to keep chordalvet's noglobalrand
// invariant trivially satisfied: there is no source to seed and no
// stream whose position could depend on process history.
type Faults struct {
	// spec and seed are the ParseFaults inputs; seed also keys the three
	// decision streams.
	spec string
	seed uint64
	// drop is the probability that a queued message is discarded; dup
	// the probability that a delivered one arrives twice (the copy lands
	// at the adjacent queue position). maxDelay, when positive, assigns
	// each delivered message a delay in [0, maxDelay] rounds, drawn
	// uniformly from its own stream.
	drop, dup float64
	maxDelay  int
	// crash maps a node ID to the first step it does NOT execute (crash
	// at round 0 means the node never even runs Init).
	crash map[graph.ID]int
}

// perturbs reports whether the schedule can affect any message.
func (f *Faults) perturbs() bool {
	return f.drop > 0 || f.dup > 0 || f.maxDelay > 0
}

// active reports whether the schedule can perturb anything.
func (f *Faults) active() bool {
	return f != nil && (f.perturbs() || len(f.crash) > 0)
}

// Decision-stream constants: each fault kind draws from its own stream
// so that, e.g., lowering the drop rate never shifts which messages get
// duplicated. Arbitrary distinct odd constants.
const (
	streamDrop  uint64 = 0xd10b_97f4_a7c1_5d01
	streamDup   uint64 = 0x9e37_79b9_7f4a_7c15
	streamDelay uint64 = 0xc2b2_ae3d_27d4_eb4f
)

// splitMix64 is the SplitMix64 output finalizer (Steele, Lea & Flood,
// "Fast splittable pseudorandom number generators"): a bijective
// avalanche mix used here as a keyed hash over fault coordinates.
func splitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// faultHash chains the decision coordinates through splitMix64. Each
// absorb step applies the full finalizer, so nearby coordinates
// (adjacent queue positions, consecutive rounds) land on unrelated
// outputs.
func faultHash(seed, stream uint64, round, sender, pos int) uint64 {
	x := splitMix64(seed ^ stream)
	x = splitMix64(x + uint64(round))
	x = splitMix64(x + uint64(sender))
	x = splitMix64(x + uint64(pos))
	return x
}

// u01 maps a hash to [0,1) using the high 53 bits, the standard
// float64-from-uint64 construction.
func u01(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

// faultAction is the schedule's verdict for one queued message.
type faultAction struct {
	drop  bool
	dup   bool
	delay int
}

// decide returns the fault action for the message at queue position pos
// of the sender's outbox in the given round — a pure function of
// (seed, round, sender, pos).
func (f *Faults) decide(round, sender, pos int) faultAction {
	var a faultAction
	if f.drop > 0 && u01(faultHash(f.seed, streamDrop, round, sender, pos)) < f.drop {
		a.drop = true
		return a
	}
	if f.dup > 0 && u01(faultHash(f.seed, streamDup, round, sender, pos)) < f.dup {
		a.dup = true
	}
	if f.maxDelay > 0 {
		a.delay = int(faultHash(f.seed, streamDelay, round, sender, pos) % uint64(f.maxDelay+1))
	}
	return a
}

// ErrFaultsInactive reports a fault spec that parsed successfully but
// describes a schedule that can never perturb anything: every rate is
// zero and no crash is listed. An empty spec is the documented
// "no plan requested" case and does NOT produce this error; a non-empty
// inert spec almost always is a misconfiguration (a typo'd rate of 0.0
// would otherwise silently run a fault-free "chaos" experiment), so
// ParseFaults returns an error wrapping this sentinel, which callers
// match with errors.Is.
var ErrFaultsInactive = errors.New("fault spec can never fire: all rates zero and no crashes")

// ParseFaults parses a fault specification of the form
//
//	drop=P,dup=P,delay=D,crash=NODE@ROUND[,crash=NODE@ROUND...]
//
// (any subset of keys, in any order) into a schedule keyed by seed. The
// seed is supplied separately so the same spec can be replayed under
// many seeds. Probabilities must lie in [0,1]; delay and crash rounds
// must be non-negative. An empty (or all-blank) spec returns (nil, nil)
// — no plan requested, the engine's fast path. A non-empty spec that
// parses to a schedule which cannot perturb anything returns an error
// wrapping ErrFaultsInactive, so callers can distinguish "no plan
// requested" from "plan parsed empty" and fail loudly on
// misconfiguration.
func ParseFaults(spec string, seed uint64) (*Faults, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	f := &Faults{spec: spec, seed: seed}
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return nil, fmt.Errorf("fault: malformed field %q (want key=value)", field)
		}
		switch key {
		case "drop", "dup":
			p, err := strconv.ParseFloat(val, 64)
			// Written as a negated range test so NaN, which fails every
			// comparison, is rejected too.
			if err != nil || !(p >= 0 && p <= 1) {
				return nil, fmt.Errorf("fault: %s=%q is not a probability in [0,1]", key, val)
			}
			if key == "drop" {
				f.drop = p
			} else {
				f.dup = p
			}
		case "delay":
			d, err := strconv.Atoi(val)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("fault: delay=%q is not a non-negative round count", val)
			}
			f.maxDelay = d
		case "crash":
			node, round, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("fault: crash=%q (want crash=NODE@ROUND)", val)
			}
			id, err1 := strconv.ParseInt(node, 10, 64)
			r, err2 := strconv.Atoi(round)
			if err1 != nil || err2 != nil || r < 0 {
				return nil, fmt.Errorf("fault: crash=%q (want crash=NODE@ROUND with ROUND ≥ 0)", val)
			}
			if f.crash == nil {
				f.crash = make(map[graph.ID]int)
			}
			f.crash[graph.ID(id)] = r
		default:
			return nil, fmt.Errorf("fault: unknown key %q (want drop, dup, delay, or crash)", key)
		}
	}
	if !f.active() {
		return nil, fmt.Errorf("fault: %q: %w; fix the spec, or give none for a fault-free run", spec, ErrFaultsInactive)
	}
	return f, nil
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
