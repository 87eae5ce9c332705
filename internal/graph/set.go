package graph

import (
	"slices"
	"sort"
)

// Set is a sorted, duplicate-free slice of node IDs. The order makes set
// algebra deterministic, which the canonical clique-forest construction
// depends on. All operations treat their receivers/arguments as immutable
// and return fresh slices.
type Set []ID

// NewSet returns the set containing the given IDs, sorted and deduplicated.
func NewSet(ids ...ID) Set {
	s := make(Set, len(ids))
	copy(s, ids)
	slices.Sort(s)
	return dedup(s)
}

func dedup(s Set) Set {
	if len(s) < 2 {
		return s
	}
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// Contains reports whether v is in s.
func (s Set) Contains(v ID) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	return i < len(s) && s[i] == v
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	var out Set
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	out := make(Set, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// Minus returns s \ t.
func (s Set) Minus(t Set) Set {
	var out Set
	i, j := 0, 0
	for i < len(s) {
		for j < len(t) && t[j] < s[i] {
			j++
		}
		if j < len(t) && t[j] == s[i] {
			i++
			continue
		}
		out = append(out, s[i])
		i++
	}
	return out
}

// SubsetOf reports whether every element of s is in t.
func (s Set) SubsetOf(t Set) bool {
	i, j := 0, 0
	for i < len(s) {
		for j < len(t) && t[j] < s[i] {
			j++
		}
		if j >= len(t) || t[j] != s[i] {
			return false
		}
		i++
	}
	return true
}

// ProperSubsetOf reports whether s ⊊ t.
func (s Set) ProperSubsetOf(t Set) bool {
	return len(s) < len(t) && s.SubsetOf(t)
}

// Equal reports whether s and t contain the same elements.
func (s Set) Equal(t Set) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of s.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	copy(out, s)
	return out
}

// Compare orders sets by the lexicographic order ≺ over ID words that the
// paper uses for σ(C) (identifiers listed in increasing order). It returns
// -1, 0, or +1.
func (s Set) Compare(t Set) int {
	for i := 0; i < len(s) && i < len(t); i++ {
		if s[i] != t[i] {
			if s[i] < t[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(s) < len(t):
		return -1
	case len(s) > len(t):
		return 1
	}
	return 0
}
