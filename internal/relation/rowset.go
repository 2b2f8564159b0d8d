package relation

// rowSet is the flat hash table behind set semantics: an open-addressed,
// linearly probed table of row indices, each stored as index+1 so that 0
// marks an empty slot. It stores no keys — a slot is located by the FNV-1a
// hash of the row's ids and confirmed by comparing ids against the owning
// relation's columns. Its length is a power of two and its owner keeps it
// at most half full, so probe runs stay short. It holds no pointers, so the
// garbage collector never scans it, and adding a row allocates nothing
// until the table doubles.
type rowSet struct {
	slots []int32
	shift uint // 64 − log₂ len(slots): a hash's home slot is its top bits
}

// minRowSetBits sizes the smallest table (8 slots).
const minRowSetBits = 3

// fibMul spreads a row hash over the slot range (Fibonacci hashing) before
// its top bits pick the home slot.
const fibMul = 0x9e3779b97f4a7c15

// newRowSet returns an empty table with room for rows entries at most half
// full.
func newRowSet(rows int) rowSet {
	bits := uint(minRowSetBits)
	for 1<<bits < 2*rows {
		bits++
	}
	return rowSet{slots: make([]int32, 1<<bits), shift: 64 - bits}
}

// present reports whether the table has been built.
func (s *rowSet) present() bool { return s.slots != nil }

// fits reports whether the table holds rows entries at most half full.
func (s *rowSet) fits(rows int) bool { return 2*rows <= len(s.slots) }

// home returns the slot a probe for hash h starts at.
func (s *rowSet) home(h uint64) int { return int((h * fibMul) >> s.shift) }

// next returns the slot after i, wrapping around.
func (s *rowSet) next(i int) int { return (i + 1) & (len(s.slots) - 1) }

// put stores a row the caller knows is absent in the first empty slot of
// h's probe run. It never grows the table: the caller reserves room first.
func (s *rowSet) put(h uint64, row int) {
	i := s.home(h)
	for s.slots[i] != 0 {
		i = s.next(i)
	}
	s.slots[i] = int32(row + 1)
}

// resize rebuilds the table with room for rows entries, re-placing every
// stored row under hash.
func (s *rowSet) resize(rows int, hash func(row int) uint64) {
	old := s.slots
	*s = newRowSet(rows)
	for _, v := range old {
		if v != 0 {
			s.put(hash(int(v-1)), int(v-1))
		}
	}
}
