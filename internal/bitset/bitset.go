// Package bitset implements dense fixed-capacity bitsets. The covering
// engine represents "which sensors does candidate stop c cover?" as a
// bitset, making the greedy and exact set-cover inner loops word-parallel:
// coverage gain is a popcount of AndNot rather than a per-sensor scan.
package bitset

import "math/bits"

const wordBits = 64

// Set is a bitset over [0, Len()). The zero value is an empty set of
// capacity 0; use New for a sized set.
type Set struct {
	n     int
	words []uint64
}

// New returns an empty set with capacity for n bits.
func New(n int) *Set {
	if n < 0 {
		//mdglint:ignore nopanic documented precondition on a programmer-supplied constant capacity
		panic("bitset: negative capacity")
	}
	return &Set{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Len returns the capacity in bits.
func (s *Set) Len() int { return s.n }

// check panics when i is outside [0, n).
func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		//mdglint:ignore nopanic bounds check mirroring slice-index semantics; an error return would poison every hot-path bit op
		panic("bitset: index out of range")
	}
}

// Add sets bit i.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove clears bit i.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Has reports whether bit i is set.
func (s *Set) Has(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether no bits are set.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Fill sets every bit in [0, n).
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// trim zeroes the bits beyond n in the last word.
func (s *Set) trim() {
	if s.n%wordBits != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << (uint(s.n) % wordBits)) - 1
	}
}

func (s *Set) mustMatch(o *Set) {
	if s.n != o.n {
		//mdglint:ignore nopanic set-algebra on mismatched capacities is a programming error, like mismatched matrix dimensions
		panic("bitset: capacity mismatch")
	}
}

// Or sets s to s ∪ o.
func (s *Set) Or(o *Set) {
	s.mustMatch(o)
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// And sets s to s ∩ o.
func (s *Set) And(o *Set) {
	s.mustMatch(o)
	for i, w := range o.words {
		s.words[i] &= w
	}
}

// AndNot sets s to s \ o.
func (s *Set) AndNot(o *Set) {
	s.mustMatch(o)
	for i, w := range o.words {
		s.words[i] &^= w
	}
}

// NextSet returns the smallest set bit >= i, or -1 when none exists.
func (s *Set) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	w := s.words[wi] >> (uint(i) % wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// ForEach calls fn for every set bit in ascending order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			fn(wi*wordBits + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}
