package graph

import (
	"testing"
	"testing/quick"
)

func TestNewSetSortsAndDedups(t *testing.T) {
	s := NewSet(5, 1, 3, 5, 1)
	want := Set{1, 3, 5}
	if !s.Equal(want) {
		t.Fatalf("NewSet = %v, want %v", s, want)
	}
}

func TestSetContains(t *testing.T) {
	s := NewSet(2, 4, 6)
	for _, v := range []ID{2, 4, 6} {
		if !s.Contains(v) {
			t.Fatalf("Contains(%d) = false", v)
		}
	}
	for _, v := range []ID{1, 3, 5, 7} {
		if s.Contains(v) {
			t.Fatalf("Contains(%d) = true", v)
		}
	}
	if NewSet().Contains(0) {
		t.Fatal("empty set contains 0")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := NewSet(1, 2, 3, 4)
	b := NewSet(3, 4, 5, 6)
	if got := a.Intersect(b); !got.Equal(NewSet(3, 4)) {
		t.Fatalf("Intersect = %v", got)
	}
	if got := a.Union(b); !got.Equal(NewSet(1, 2, 3, 4, 5, 6)) {
		t.Fatalf("Union = %v", got)
	}
	if got := a.Minus(b); !got.Equal(NewSet(1, 2)) {
		t.Fatalf("Minus = %v", got)
	}
}

func TestSubsetRelations(t *testing.T) {
	a := NewSet(2, 4)
	b := NewSet(1, 2, 3, 4)
	if !a.SubsetOf(b) || !a.ProperSubsetOf(b) {
		t.Fatal("subset relations wrong")
	}
	if b.SubsetOf(a) {
		t.Fatal("superset reported as subset")
	}
	if !a.SubsetOf(a) || a.ProperSubsetOf(a) {
		t.Fatal("reflexive subset relations wrong")
	}
	var empty Set
	if !empty.SubsetOf(a) {
		t.Fatal("empty set must be subset of everything")
	}
}

func TestSetCompareLexicographic(t *testing.T) {
	cases := []struct {
		a, b Set
		want int
	}{
		{NewSet(1, 2, 3), NewSet(1, 2, 3), 0},
		{NewSet(1, 2), NewSet(1, 2, 3), -1},
		{NewSet(1, 2, 3), NewSet(1, 2), 1},
		{NewSet(1, 2, 4), NewSet(1, 3), -1}, // word 124 ≺ 13 because 2 < 3
		{NewSet(5), NewSet(1, 9), 1},
		{nil, NewSet(1), -1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestSetCloneIndependent(t *testing.T) {
	a := NewSet(1, 2, 3)
	c := a.Clone()
	c[0] = 99
	if a[0] != 1 {
		t.Fatal("Clone shares backing array")
	}
}

func toSet(raw []uint8) Set {
	ids := make([]ID, len(raw))
	for i, v := range raw {
		ids[i] = ID(v % 32)
	}
	return NewSet(ids...)
}

func TestPropertySetAlgebra(t *testing.T) {
	f := func(ar, br []uint8) bool {
		a, b := toSet(ar), toSet(br)
		inter := a.Intersect(b)
		union := a.Union(b)
		minus := a.Minus(b)
		// |A∪B| = |A| + |B| - |A∩B|
		if len(union) != len(a)+len(b)-len(inter) {
			return false
		}
		// A\B and A∩B partition A.
		if len(minus)+len(inter) != len(a) {
			return false
		}
		// Membership consistency.
		for _, v := range union {
			if !a.Contains(v) && !b.Contains(v) {
				return false
			}
		}
		for _, v := range inter {
			if !a.Contains(v) || !b.Contains(v) {
				return false
			}
		}
		for _, v := range minus {
			if !a.Contains(v) || b.Contains(v) {
				return false
			}
		}
		return inter.SubsetOf(a) && inter.SubsetOf(b) && a.SubsetOf(union)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCompareIsTotalOrder(t *testing.T) {
	f := func(ar, br, cr []uint8) bool {
		a, b, c := toSet(ar), toSet(br), toSet(cr)
		// Antisymmetry.
		if a.Compare(b) != -b.Compare(a) {
			return false
		}
		// Compare == 0 iff Equal.
		if (a.Compare(b) == 0) != a.Equal(b) {
			return false
		}
		// Transitivity (only check the <= direction).
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
