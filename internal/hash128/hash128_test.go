package hash128

import "testing"

// TestPrefixFree: the helpers length-prefix what they fold, so runs that
// concatenate to the same words still hash apart.
func TestPrefixFree(t *testing.T) {
	sum := func(f func(h *Hasher)) Sum {
		h := New(1)
		f(&h)
		return h.Sum()
	}
	distinct := map[Sum]string{}
	for name, f := range map[string]func(h *Hasher){
		"ints 1|2,3":  func(h *Hasher) { h.Ints([]int{1}); h.Ints([]int{2, 3}) },
		"ints 1,2|3":  func(h *Hasher) { h.Ints([]int{1, 2}); h.Ints([]int{3}) },
		"ints 1,2,3|": func(h *Hasher) { h.Ints([]int{1, 2, 3}); h.Ints(nil) },
		"str a":       func(h *Hasher) { h.String("a") },
		"str a0":      func(h *Hasher) { h.String("a\x00") },
		"str 8":       func(h *Hasher) { h.String("abcdefgh") },
		"str 8+0":     func(h *Hasher) { h.String("abcdefgh\x00") },
		"str ab|c":    func(h *Hasher) { h.String("ab"); h.String("c") },
		"str a|bc":    func(h *Hasher) { h.String("a"); h.String("bc") },
		"bool":        func(h *Hasher) { h.Bool(true) },
		"empty":       func(h *Hasher) {},
	} {
		s := sum(f)
		if prev, dup := distinct[s]; dup {
			t.Fatalf("%q and %q share a sum", prev, name)
		}
		distinct[s] = name
	}
	if New(1).Sum() == New(2).Sum() {
		t.Fatal("domains share a sum")
	}
}

// TestOneWordNeverCollides: per lane, folding is a bijection of the word,
// so streams differing in one word differ in both halves of the sum.
func TestOneWordNeverCollides(t *testing.T) {
	for i := uint64(0); i < 1<<12; i++ {
		a, b := New(0), New(0)
		a.Word(7)
		b.Word(7)
		a.Word(i)
		b.Word(i + 1)
		a.Word(9)
		b.Word(9)
		x, y := a.Sum(), b.Sum()
		if x[0] == y[0] || x[1] == y[1] {
			t.Fatalf("words %d and %d collide in a lane", i, i+1)
		}
	}
}
