package par

import "testing"

// White-box bitset tests live here with the implementation; the runtime
// package's frontier tests cover the alias-facing behavior.

func TestBitsetTrailingWordMasked(t *testing.T) {
	// A words buffer with stale high bits (as if reused at smaller size)
	// must never surface phantom indices or over-count.
	b := NewBitset(70)
	for i := 0; i < 70; i++ {
		b.Set(i)
	}
	b.words[1].Store(^uint64(0)) // stale bits above position 69
	if got := b.Count(); got != 70 {
		t.Fatalf("Count with stale tail bits = %d, want 70", got)
	}
	seen := 0
	b.ForEachSet(func(i int) {
		if i >= 70 {
			t.Fatalf("ForEachSet surfaced phantom index %d", i)
		}
		seen++
	})
	if seen != 70 {
		t.Fatalf("ForEachSet visited %d bits, want 70", seen)
	}
	if got := b.MaskedWord(1); got != (uint64(1)<<6)-1 {
		t.Fatalf("MaskedWord(1) = %#x, want low 6 bits", got)
	}
}

// ForEachSetIn must visit exactly the set bits inside [lo, hi), clamping
// out-of-range bounds, for ranges within one word and across words.
func TestBitsetForEachSetIn(t *testing.T) {
	b := NewBitset(200)
	for i := 0; i < 200; i += 3 {
		b.Set(i)
	}
	for _, r := range [][2]int{{0, 200}, {-5, 10}, {5, 6}, {6, 7}, {60, 70}, {63, 129}, {64, 128}, {190, 400}, {10, 10}, {50, 20}} {
		var got []int
		b.ForEachSetIn(r[0], r[1], func(i int) { got = append(got, i) })
		var want []int
		for i := max(r[0], 0); i < min(r[1], 200); i++ {
			if i%3 == 0 {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("[%d, %d): got %v, want %v", r[0], r[1], got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("[%d, %d): got %v, want %v", r[0], r[1], got, want)
			}
		}
	}
}

func TestBitsetMaskedWordRoundTrip(t *testing.T) {
	b := NewBitset(130)
	set := []int{0, 63, 64, 127, 128, 129}
	for _, i := range set {
		b.Set(i)
	}
	total := 0
	for w := 0; w < b.Words(); w++ {
		word := b.MaskedWord(w)
		for word != 0 {
			total++
			word &= word - 1
		}
	}
	if total != len(set) {
		t.Fatalf("MaskedWord scan found %d bits, want %d", total, len(set))
	}
}

// OrWordOwned is Set, a word at a time, for a caller that owns the word:
// with workers owning disjoint word-aligned ranges, each oring its masks in
// concurrently while readers load words, the result must equal a CAS Set
// per bit, bit for bit. Each word gets its bits as two overlapping masks, a
// repeat and an empty mask, so a mask that adds nothing must leave the word
// as it is. Under -race the concurrent MaskedWord readers check the store
// is atomic.
func TestBitsetOrWordOwnedMatchesSet(t *testing.T) {
	const size = 64*9 + 17
	for _, workers := range []int{1, 2, 3, 5} {
		owned, cas := NewBitset(size), NewBitset(size)
		words := owned.Words()
		Do(workers+1, func(w int) {
			if w == workers {
				for i := 0; i < words; i++ {
					_ = owned.MaskedWord(i)
				}
				return
			}
			lo, hi := Range(w, workers, words)
			for wi := lo; wi < hi; wi++ {
				var mask uint64
				for i := wi * 64; i < min(wi*64+64, size); i++ {
					if (i*7)%5 < 2 || i%64 == 63 {
						mask |= 1 << (uint(i) % 64)
						cas.Set(i)
					}
				}
				owned.OrWordOwned(wi, mask&0x00ff_ffff_ffff_ffff)
				owned.OrWordOwned(wi, mask&0xffff_ffff_ffff_ff00)
				owned.OrWordOwned(wi, mask) // a repeat is a no-op
				owned.OrWordOwned(wi, 0)
			}
		})
		for i := 0; i < words; i++ {
			if got, want := owned.MaskedWord(i), cas.MaskedWord(i); got != want {
				t.Errorf("%d workers: word %d = %#x, Set gives %#x", workers, i, got, want)
			}
		}
	}
}
