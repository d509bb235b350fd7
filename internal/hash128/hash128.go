// Package hash128 is the word-at-a-time structural hasher behind the
// fusion memo key (paper §5.2): kernels (kir), partitions and tasks (ir)
// and whole windows (ir.KeyStream) fold their fields into it instead of
// rendering them to text. It sits below kir so that both kir and ir can
// cache a Sum on their immutable values.
//
// A Hasher carries two independent 64-bit lanes. Folding one word is, in
// each lane, a bijection of the lane state for a fixed word and of the
// word for a fixed state, so two streams that differ in exactly one word
// never collide; anything else collides with probability ~2^-128. Callers
// keep the word stream prefix-free (every variable-length run is
// length-prefixed, every optional part is tagged), which is what makes
// Sum equality stand for structural equality.
package hash128

import "math/bits"

// Sum is a 128-bit structural hash; it is comparable and usable as a map
// key.
type Sum [2]uint64

// Hasher folds words into a Sum. The zero value is not ready: start from
// New.
type Hasher struct{ a, b uint64 }

// New returns a Hasher whose lanes start from the domain tag, so equal
// word streams hashed for different kinds of value (a partition, a
// kernel, a window) do not share sums.
func New(domain uint64) Hasher {
	h := Hasher{a: 0x9e3779b97f4a7c15, b: 0xc2b2ae3d27d4eb4f}
	h.Word(domain)
	return h
}

// Word folds one 64-bit word.
func (h *Hasher) Word(v uint64) {
	a := (bits.RotateLeft64(h.a, 23) ^ v) * 0xff51afd7ed558ccd
	h.a = a ^ a>>32
	b := (bits.RotateLeft64(h.b, 41) + v) * 0x9fb21c651e98df25
	h.b = b ^ b>>29
}

// Int folds one int.
func (h *Hasher) Int(v int) { h.Word(uint64(v)) }

// Bool folds one bool.
func (h *Hasher) Bool(v bool) {
	if v {
		h.Word(1)
	} else {
		h.Word(0)
	}
}

// Ints folds a length-prefixed run of ints.
func (h *Hasher) Ints(v []int) {
	h.Word(uint64(len(v)))
	for _, x := range v {
		h.Word(uint64(x))
	}
}

// String folds a length-prefixed string, eight bytes to the word.
func (h *Hasher) String(s string) {
	h.Word(uint64(len(s)))
	for len(s) >= 8 {
		h.Word(uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56)
		s = s[8:]
	}
	var tail uint64
	for i := 0; i < len(s); i++ {
		tail |= uint64(s[i]) << (8 * i)
	}
	h.Word(tail)
}

// Fold folds a previously computed Sum (a cached sub-structure hash).
func (h *Hasher) Fold(s Sum) {
	h.Word(s[0])
	h.Word(s[1])
}

// Sum finalizes the lanes. The Hasher may keep folding afterwards.
func (h Hasher) Sum() Sum {
	return Sum{fmix(h.a), fmix(h.b)}
}

// fmix is the MurmurHash3 64-bit finalizer.
func fmix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
