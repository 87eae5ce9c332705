package dist

// IdxSet is a small open-addressing hash set of int32 snapshot indices,
// used for per-node dedup state in flooding protocols. Entries are
// stored +1 so the zero value of a table slot means empty; the zero
// value of IdxSet is an empty set ready for use. Compared to
// map[int32]struct{} it allocates only on growth and never boxes.
type IdxSet struct {
	table []int32
	n     int
}

// idxSetMinCap is the first table size. Flooding dedup sets typically
// reach the radius-ball size, so starting a bit above the minimum skips
// the earliest rehash ramps without bloating nodes that stay small.
const idxSetMinCap = 16

func idxSetHash(x int32, mask uint32) uint32 {
	return (uint32(x) * 2654435761) & mask
}

// Has reports whether x is in the set.
func (s *IdxSet) Has(x int32) bool { return s.n != 0 && s.has(x) }

// has is Has on a non-empty set: the probe alone, small enough that
// Knowledge.KnownIdx inlines with it.
func (s *IdxSet) has(x int32) bool {
	mask := uint32(len(s.table) - 1)
	for h := idxSetHash(x, mask); s.table[h] != 0; h = (h + 1) & mask {
		if s.table[h] == x+1 {
			return true
		}
	}
	return false
}

// Add inserts x and reports whether it was newly added.
func (s *IdxSet) Add(x int32) bool {
	if 4*(s.n+1) > 3*len(s.table) {
		s.grow()
	}
	mask := uint32(len(s.table) - 1)
	for h := idxSetHash(x, mask); ; h = (h + 1) & mask {
		e := s.table[h]
		if e == 0 {
			s.table[h] = x + 1
			s.n++
			return true
		}
		if e == x+1 {
			return false
		}
	}
}

// appendTo appends the elements to dst in table order and returns the
// extended slice.
func (s *IdxSet) appendTo(dst []int32) []int32 {
	for _, e := range s.table {
		if e != 0 {
			dst = append(dst, e-1)
		}
	}
	return dst
}

// Reserve presizes an empty set so n elements fit without rehashing; on
// a non-empty set it is a no-op. A capacity hint only — the set still
// grows past it as needed.
func (s *IdxSet) Reserve(n int) {
	if s.n > 0 || n <= 0 {
		return
	}
	need := idxSetMinCap
	for 4*n > 3*need {
		need *= 2
	}
	if need > len(s.table) {
		s.table = make([]int32, need)
	}
}

func (s *IdxSet) grow() {
	oldTable := s.table
	newCap := idxSetMinCap
	if len(oldTable) > 0 {
		newCap = 2 * len(oldTable)
	}
	s.table = make([]int32, newCap)
	mask := uint32(newCap - 1)
	for _, e := range oldTable {
		if e == 0 {
			continue
		}
		for h := idxSetHash(e-1, mask); ; h = (h + 1) & mask {
			if s.table[h] == 0 {
				s.table[h] = e
				break
			}
		}
	}
}

// IdxMap is an open-addressing hash map from int32 snapshot indices to
// int32 values, the map counterpart of IdxSet. The zero value is an
// empty map ready for use.
type IdxMap struct {
	keys []int32 // an IdxSet table: stored +1, 0 = empty, same hash
	vals []int32
	n    int
}

// keySet returns the map's keys as an IdxSet sharing its table: the key
// table is laid out, hashed and loaded exactly as a set's. The set is
// valid until the map's next Put.
func (m *IdxMap) keySet() IdxSet { return IdxSet{table: m.keys, n: m.n} }

// Get returns the value for x and whether it is present.
func (m *IdxMap) Get(x int32) (int32, bool) {
	if m.n == 0 {
		return 0, false
	}
	mask := uint32(len(m.keys) - 1)
	for h := idxSetHash(x, mask); ; h = (h + 1) & mask {
		e := m.keys[h]
		if e == 0 {
			return 0, false
		}
		if e == x+1 {
			return m.vals[h], true
		}
	}
}

// Put sets the value for x, reporting whether the key was newly added.
func (m *IdxMap) Put(x, v int32) bool {
	if 4*(m.n+1) > 3*len(m.keys) {
		m.grow()
	}
	mask := uint32(len(m.keys) - 1)
	for h := idxSetHash(x, mask); ; h = (h + 1) & mask {
		e := m.keys[h]
		if e == 0 {
			m.keys[h] = x + 1
			m.vals[h] = v
			m.n++
			return true
		}
		if e == x+1 {
			m.vals[h] = v
			return false
		}
	}
}

func (m *IdxMap) grow() {
	oldKeys, oldVals := m.keys, m.vals
	newCap := idxSetMinCap
	if len(oldKeys) > 0 {
		newCap = 2 * len(oldKeys)
	}
	m.keys = make([]int32, newCap)
	m.vals = make([]int32, newCap)
	mask := uint32(newCap - 1)
	for i, e := range oldKeys {
		if e == 0 {
			continue
		}
		for h := idxSetHash(e-1, mask); ; h = (h + 1) & mask {
			if m.keys[h] == 0 {
				m.keys[h] = e
				m.vals[h] = oldVals[i]
				break
			}
		}
	}
}
