// Package fault provides the deterministic fault-injection schedules of
// the LOCAL simulator (stdlib-only). A Plan describes message-level
// perturbations — drop, duplication, and per-edge delivery delay — whose
// per-message decision is a pure function of (seed, round, sender index,
// queue position). The engine asks the plan one question per queued
// message at the round boundary; because the answer depends only on
// those coordinates, every range count, runtime, and rerun sees the
// identical fault schedule, so faulty runs stay as reproducible as clean
// ones.
//
// Randomness comes from a private SplitMix64 finalizer chained over the
// decision coordinates rather than from math/rand, both to keep the
// schedule a stateless function and to keep chordalvet's noglobalrand
// invariant trivially satisfied: there is no source to seed and no
// stream whose position could depend on process history.
package fault

import (
	"fmt"
	"strconv"
	"strings"
)

// Decision-stream constants: each fault kind draws from its own stream
// so that, e.g., lowering the drop rate never shifts which messages get
// duplicated. Arbitrary distinct odd constants.
const (
	streamDrop  uint64 = 0xd10b_97f4_a7c1_5d01
	streamDup   uint64 = 0x9e37_79b9_7f4a_7c15
	streamDelay uint64 = 0xc2b2_ae3d_27d4_eb4f
)

// SplitMix64 is the SplitMix64 output finalizer (Steele, Lea & Flood,
// "Fast splittable pseudorandom number generators"): a bijective avalanche
// mix used here as a keyed hash over fault coordinates.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash chains the decision coordinates through SplitMix64. Each absorb
// step applies the full finalizer, so nearby coordinates (adjacent queue
// positions, consecutive rounds) land on unrelated outputs.
func hash(seed, stream uint64, round, sender, pos int) uint64 {
	x := SplitMix64(seed ^ stream)
	x = SplitMix64(x + uint64(round))
	x = SplitMix64(x + uint64(sender))
	x = SplitMix64(x + uint64(pos))
	return x
}

// u01 maps a hash to [0,1) using the high 53 bits, the standard
// float64-from-uint64 construction.
func u01(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

// Plan is a seeded deterministic message-perturbation schedule. The zero
// value perturbs nothing. Probabilities are per message; MaxDelay > 0
// assigns each delivered message a latency in [0, MaxDelay] rounds drawn
// uniformly from its own stream.
type Plan struct {
	// Seed keys all three decision streams.
	Seed uint64
	// Drop is the probability that a queued message is discarded.
	Drop float64
	// Dup is the probability that a delivered message arrives twice
	// (the copy lands at the adjacent queue position).
	Dup float64
	// MaxDelay, when positive, enables the per-edge latency schedule:
	// each delivered message is assigned a delay in [0, MaxDelay] rounds.
	// The round-synchronous engine absorbs the delay (delivery content
	// and order are unchanged) and charges it as synchronizer stall time.
	MaxDelay int
}

// Action is the plan's verdict for one queued message.
type Action struct {
	Drop  bool
	Dup   bool
	Delay int
}

// Perturbs reports whether the plan can affect any message.
func (p Plan) Perturbs() bool {
	return p.Drop > 0 || p.Dup > 0 || p.MaxDelay > 0
}

// Decide returns the fault action for the message at queue position pos
// of the sender's outbox in the given round — a pure function of
// (Seed, round, sender, pos).
func (p Plan) Decide(round, sender, pos int) Action {
	var a Action
	if p.Drop > 0 && u01(hash(p.Seed, streamDrop, round, sender, pos)) < p.Drop {
		a.Drop = true
		return a
	}
	if p.Dup > 0 && u01(hash(p.Seed, streamDup, round, sender, pos)) < p.Dup {
		a.Dup = true
	}
	if p.MaxDelay > 0 {
		a.Delay = int(hash(p.Seed, streamDelay, round, sender, pos) % uint64(p.MaxDelay+1))
	}
	return a
}

// Parse parses a fault specification of the form
//
//	drop=P,dup=P,delay=D,crash=NODE@ROUND[,crash=NODE@ROUND...]
//
// (any subset of keys, in any order) into a Plan plus a crash schedule
// keyed by node ID. The seed is supplied separately so the same spec can
// be replayed under many seeds. Probabilities must lie in [0,1]; delay
// and crash rounds must be non-negative.
func Parse(spec string, seed uint64) (Plan, map[int64]int, error) {
	p := Plan{Seed: seed}
	var crash map[int64]int
	if strings.TrimSpace(spec) == "" {
		return p, nil, nil
	}
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return Plan{}, nil, fmt.Errorf("fault: malformed field %q (want key=value)", field)
		}
		switch key {
		case "drop", "dup":
			f, err := strconv.ParseFloat(val, 64)
			// Written as a negated range test so NaN, which fails every
			// comparison, is rejected too.
			if err != nil || !(f >= 0 && f <= 1) {
				return Plan{}, nil, fmt.Errorf("fault: %s=%q is not a probability in [0,1]", key, val)
			}
			if key == "drop" {
				p.Drop = f
			} else {
				p.Dup = f
			}
		case "delay":
			d, err := strconv.Atoi(val)
			if err != nil || d < 0 {
				return Plan{}, nil, fmt.Errorf("fault: delay=%q is not a non-negative round count", val)
			}
			p.MaxDelay = d
		case "crash":
			node, round, ok := strings.Cut(val, "@")
			if !ok {
				return Plan{}, nil, fmt.Errorf("fault: crash=%q (want crash=NODE@ROUND)", val)
			}
			id, err1 := strconv.ParseInt(node, 10, 64)
			r, err2 := strconv.Atoi(round)
			if err1 != nil || err2 != nil || r < 0 {
				return Plan{}, nil, fmt.Errorf("fault: crash=%q (want crash=NODE@ROUND with ROUND ≥ 0)", val)
			}
			if crash == nil {
				crash = make(map[int64]int)
			}
			crash[id] = r
		default:
			return Plan{}, nil, fmt.Errorf("fault: unknown key %q (want drop, dup, delay, or crash)", key)
		}
	}
	return p, crash, nil
}
