package fault

import "testing"

func TestDecideDeterministic(t *testing.T) {
	p := Plan{Seed: 42, Drop: 0.3, Dup: 0.3, MaxDelay: 4}
	for round := 0; round < 5; round++ {
		for sender := 0; sender < 5; sender++ {
			for pos := 0; pos < 5; pos++ {
				a := p.Decide(round, sender, pos)
				b := p.Decide(round, sender, pos)
				if a != b {
					t.Fatalf("Decide(%d,%d,%d) not stable: %+v vs %+v", round, sender, pos, a, b)
				}
			}
		}
	}
}

func TestDecideZeroPlan(t *testing.T) {
	var p Plan
	if p.Perturbs() {
		t.Fatal("zero plan reports Perturbs")
	}
	if a := p.Decide(3, 7, 11); a != (Action{}) {
		t.Fatalf("zero plan produced action %+v", a)
	}
}

// TestDecideRates checks the drop/dup streams hit their configured
// probabilities to within a loose tolerance, and that delays cover the
// full [0, MaxDelay] range.
func TestDecideRates(t *testing.T) {
	p := Plan{Seed: 7, Drop: 0.25, Dup: 0.25, MaxDelay: 3}
	const total = 40000
	drops, dups := 0, 0
	delaySeen := make(map[int]bool)
	for i := 0; i < total; i++ {
		a := p.Decide(i%97, i%31, i%53)
		if a.Drop {
			drops++
		}
		if a.Dup {
			dups++
		}
		if a.Delay < 0 || a.Delay > p.MaxDelay {
			t.Fatalf("delay %d outside [0,%d]", a.Delay, p.MaxDelay)
		}
		delaySeen[a.Delay] = true
	}
	if got := float64(drops) / total; got < 0.20 || got > 0.30 {
		t.Errorf("drop rate %.3f, want ~0.25", got)
	}
	// Dup is only decided for non-dropped messages, so its observed rate
	// is 0.25 of the surviving 75%.
	if got := float64(dups) / total; got < 0.14 || got > 0.24 {
		t.Errorf("dup rate %.3f, want ~0.1875", got)
	}
	for d := 0; d <= p.MaxDelay; d++ {
		if !delaySeen[d] {
			t.Errorf("delay value %d never drawn", d)
		}
	}
}

// TestDecideStreamsIndependent: changing the drop rate must not change
// which surviving messages get duplicated or delayed.
func TestDecideStreamsIndependent(t *testing.T) {
	lo := Plan{Seed: 9, Drop: 0.01, Dup: 0.5, MaxDelay: 5}
	hi := Plan{Seed: 9, Drop: 0.99, Dup: 0.5, MaxDelay: 5}
	for i := 0; i < 2000; i++ {
		a, b := lo.Decide(i, i%13, i%7), hi.Decide(i, i%13, i%7)
		if a.Drop || b.Drop {
			continue // both survived in neither plan or one of them
		}
		if a.Dup != b.Dup || a.Delay != b.Delay {
			t.Fatalf("coord %d: dup/delay shifted with drop rate: %+v vs %+v", i, a, b)
		}
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference outputs of the SplitMix64 generator seeded with 0 and
	// 1234567 (first output = finalizer applied to the seed).
	if got := SplitMix64(0); got != 0xe220a8397b1dcdaf {
		t.Errorf("SplitMix64(0) = %#x, want 0xe220a8397b1dcdaf", got)
	}
	if got := SplitMix64(1234567); got != SplitMix64(1234567) {
		t.Error("SplitMix64 not a pure function")
	}
	if SplitMix64(1) == SplitMix64(2) {
		t.Error("SplitMix64 collides on adjacent inputs")
	}
}

func TestParse(t *testing.T) {
	tests := []struct {
		spec    string
		want    Plan
		crash   map[int64]int
		wantErr bool
	}{
		{spec: "", want: Plan{Seed: 5}},
		{spec: "drop=0.25", want: Plan{Seed: 5, Drop: 0.25}},
		{spec: "dup=0.1,delay=3", want: Plan{Seed: 5, Dup: 0.1, MaxDelay: 3}},
		{
			spec:  "drop=0.5,crash=4@2,crash=17@0",
			want:  Plan{Seed: 5, Drop: 0.5},
			crash: map[int64]int{4: 2, 17: 0},
		},
		{spec: "drop=1.5", wantErr: true},
		// NaN fails every comparison, so a plain range test let it through
		// as a drop rate that never fires.
		{spec: "drop=NaN", wantErr: true},
		{spec: "dup=nan", wantErr: true},
		{spec: "drop=NaN,dup=0.5", wantErr: true},
		{spec: "dup=+Inf", wantErr: true},
		{spec: "drop=-0.1", wantErr: true},
		{spec: "delay=-1", wantErr: true},
		{spec: "crash=4", wantErr: true},
		{spec: "crash=x@2", wantErr: true},
		{spec: "crash=4@-1", wantErr: true},
		{spec: "bogus=1", wantErr: true},
		{spec: "drop", wantErr: true},
	}
	for _, tc := range tests {
		p, crash, err := Parse(tc.spec, 5)
		if tc.wantErr {
			if err == nil {
				t.Errorf("Parse(%q): want error, got %+v", tc.spec, p)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.spec, err)
			continue
		}
		if p != tc.want {
			t.Errorf("Parse(%q) plan = %+v, want %+v", tc.spec, p, tc.want)
		}
		if len(crash) != len(tc.crash) {
			t.Errorf("Parse(%q) crash = %v, want %v", tc.spec, crash, tc.crash)
			continue
		}
		for id, r := range tc.crash {
			if crash[id] != r {
				t.Errorf("Parse(%q) crash[%d] = %d, want %d", tc.spec, id, crash[id], r)
			}
		}
	}
}
