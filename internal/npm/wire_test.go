package npm

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"kimbap/internal/comm"
	"kimbap/internal/graph"
)

// buildReducePayload frames section bodies (form byte included, empty
// slice = absent) the way reduceFrame.payload does, for codec-level tests.
func buildReducePayload(sections [][]byte) []byte {
	buf := make([]byte, (len(sections)+7)/8)
	for i, sec := range sections {
		if len(sec) == 0 {
			continue
		}
		buf[i/8] |= 1 << (uint(i) % 8)
		buf = comm.AppendUvarint(buf, uint64(len(sec)))
	}
	for _, sec := range sections {
		buf = append(buf, sec...)
	}
	return buf
}

// hashGeometryPayload encodes, with the real frame encoder, what a
// hash-distributed map on host 0 of 2 (2 threads, 32 global IDs) sends host
// 1: the odd keys, so each section's keys are spread over the global ID
// space rather than packed into a master range. Section 0 has enough
// entries to take the dense form, section 1 a single sparse entry.
func hashGeometryPayload() []byte {
	f := newReduceFrame[graph.NodeID](NodeIDCodec{}, 0, 2, 2,
		func(int) (graph.NodeID, uint64) { return 0, 32 })
	for k := graph.NodeID(1); k < 16; k += 2 {
		f.add(0, 1, k, k)
	}
	f.add(1, 1, 17, 17)
	f.out = f.sendBufs[0]
	return f.payload(1)
}

func TestReduceSectionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Section bodies as the encoder emits them: a form byte then a
	// self-delimiting sparse or dense body.
	sparse := []byte{sectionSparse, 2, 0x03, 0xaa, 0xbb, 0x05, 0xcc, 0xdd}
	dense := []byte{sectionDense, 1, 0b101, 0x10, 0x11, 0x20, 0x21}
	for _, threads := range []int{1, 2, 4, 7, 9} {
		for _, structured := range []bool{false, true} {
			sections := make([][]byte, threads)
			for i := range sections {
				switch {
				case structured && i%3 == 0:
					sections[i] = sparse
				case structured && i%3 == 2:
					sections[i] = dense
				case !structured && rng.Intn(4) != 0:
					sections[i] = make([]byte, 1+rng.Intn(40))
					rng.Read(sections[i])
				}
				// Everything else stays nil: a skipped section.
			}
			payload := buildReducePayload(sections)
			for ti := 0; ti < threads; ti++ {
				sec := reduceSection(payload, ti, threads)
				if !bytes.Equal(sec, sections[ti]) {
					t.Fatalf("threads %d: section %d mismatch: %x vs %x", threads, ti, sec, sections[ti])
				}
				csec, ok := reduceSectionChecked(payload, ti, threads)
				if !ok || !bytes.Equal(csec, sec) {
					t.Fatalf("threads %d: checked decoder disagrees (ok=%v)", threads, ok)
				}
				if structured && !validSectionEntries(sec, 2) {
					t.Fatalf("threads %d: section %d rejected by entry validation", threads, ti)
				}
			}
		}
	}
}

// TestReduceFrameRoundTrip drives the shared frame end to end, encoder to
// section reader, in both geometries: Full's per-host master ranges and the
// hash variants' global ID space. Random keys land in random combine
// threads' cells (as SGR-only's thread-0 drain and SGR+CF's per-range
// threads both do), and every receiver gather thread must read back
// exactly the entries addressed to it, whichever body form was chosen. Each
// case seeds its own generator, so its keys are the same on every run.
func TestReduceFrameRoundTrip(t *testing.T) {
	const hosts, threads, numGlobal = 3, 4, 500
	ranges := []graph.NodeID{0, 120, 310, numGlobal}
	geometries := []struct {
		name  string
		space func(o int) (graph.NodeID, uint64)
		owner func(k graph.NodeID) int
	}{
		{
			name: "master-range",
			space: func(o int) (graph.NodeID, uint64) {
				return ranges[o], uint64(ranges[o+1] - ranges[o])
			},
			owner: func(k graph.NodeID) int {
				o := 0
				for k >= ranges[o+1] {
					o++
				}
				return o
			},
		},
		{
			name:  "global",
			space: func(int) (graph.NodeID, uint64) { return 0, numGlobal },
			owner: func(k graph.NodeID) int { return int(k) % hosts },
		},
	}
	for _, geo := range geometries {
		for _, density := range []int{3, 50, 450} { // sparse, mixed, dense sections
			t.Run(fmt.Sprintf("%s/%d", geo.name, density), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(density)))
				send := newReduceFrame[graph.NodeID](NodeIDCodec{}, 0, threads, hosts, geo.space)
				want := make([][]graph.NodeID, hosts)
				for _, k := range rng.Perm(numGlobal)[:density] {
					o := geo.owner(graph.NodeID(k))
					if o == 0 {
						continue
					}
					send.add(rng.Intn(threads), o, graph.NodeID(k), graph.NodeID(k)*7)
					want[o] = append(want[o], graph.NodeID(k))
				}
				send.out = send.sendBufs[0]
				for o := 1; o < hosts; o++ {
					payload := send.payload(o)
					if len(want[o]) == 0 && len(payload) != 0 {
						t.Fatalf("empty round for host %d encoded %d bytes", o, len(payload))
					}
					recv := newReduceFrame[graph.NodeID](NodeIDCodec{}, o, threads, hosts, geo.space)
					var got []graph.NodeID
					for rt := 0; rt < threads; rt++ {
						lo, _ := geo.space(o)
						secLo := lo + graph.NodeID(recv.secBase[o][rt])
						secHi := lo + graph.NodeID(recv.sectionEnd(o, rt))
						r := recv.section(payload, rt)
						for k, v, ok := r.next(); ok; k, v, ok = r.next() {
							if k < secLo || k >= secHi {
								t.Fatalf("gather thread %d read key %d outside [%d, %d)", rt, k, secLo, secHi)
							}
							if v != k*7 {
								t.Fatalf("key %d carried value %d, want %d", k, v, k*7)
							}
							got = append(got, k)
						}
					}
					slices.Sort(got)
					slices.Sort(want[o])
					if !slices.Equal(got, want[o]) {
						t.Fatalf("host %d read %v, want %v", o, got, want[o])
					}
				}
			})
		}
	}
}

func TestValidSectionEntries(t *testing.T) {
	cases := map[string]struct {
		sec     []byte
		valSize int
		want    bool
	}{
		"absent":             {nil, 4, true},
		"sparse ok":          {[]byte{sectionSparse, 1, 0x07, 9, 9}, 2, true},
		"sparse short value": {[]byte{sectionSparse, 1, 0x07, 9}, 2, false},
		"sparse trailing":    {[]byte{sectionSparse, 1, 0x07, 9, 9, 0}, 2, false},
		"sparse bad count":   {[]byte{sectionSparse, 9, 0x07, 9, 9}, 2, false},
		"dense ok":           {[]byte{sectionDense, 1, 0b11, 1, 2, 3, 4}, 2, true},
		"dense pop mismatch": {[]byte{sectionDense, 1, 0b11, 1, 2, 3}, 2, false},
		"dense mask past":    {[]byte{sectionDense, 9, 0b11}, 2, false},
		"unknown form":       {[]byte{7, 0}, 2, false},
	}
	for name, c := range cases {
		if got := validSectionEntries(c.sec, c.valSize); got != c.want {
			t.Errorf("%s: valid = %v, want %v", name, got, c.want)
		}
	}
}

func TestReduceSectionCheckedRejectsMalformed(t *testing.T) {
	good := buildReducePayload([][]byte{{sectionSparse, 0}, {sectionSparse, 1, 5, 0xaa}})
	cases := map[string]struct {
		payload []byte
		t       int
		threads int
	}{
		"truncated":     {good[:len(good)-1], 1, 2}, // section 1 now ends past the payload
		"header only":   {good[:2], 0, 2},           // second length missing
		"length past":   {[]byte{0b01, 0x10, sectionSparse, 0}, 0, 2},
		"absent, past":  {[]byte{0b01, 0x10, sectionSparse, 0}, 1, 2}, // t absent, still rejected
		"mask short":    {[]byte{0xff}, 0, 9},
		"overlong len":  {[]byte{0b1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, 0, 1},
		"bad t":         {good, 2, 2},
		"negative t":    {good, -1, 2},
		"present, none": {[]byte{0b10}, 1, 2},
	}
	for name, c := range cases {
		if _, ok := reduceSectionChecked(c.payload, c.t, c.threads); ok {
			t.Errorf("%s: checked decoder accepted malformed payload", name)
		}
	}
	// The original stays decodable, and an empty payload is a valid
	// all-absent one.
	if sec, ok := reduceSectionChecked(good, 1, 2); !ok || !validSectionEntries(sec, 1) {
		t.Fatal("checked decoder rejected a well-formed payload")
	}
	if sec, ok := reduceSectionChecked(nil, 0, 2); !ok || sec != nil {
		t.Fatal("checked decoder rejected an empty payload")
	}
}

func TestIDListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(50)
		ids := make([]graph.NodeID, 0, n)
		next := graph.NodeID(rng.Intn(10))
		for i := 0; i < n; i++ {
			ids = append(ids, next)
			next += graph.NodeID(1 + rng.Intn(1000)) // sorted, gappy
		}
		payload := appendIDList(nil, ids)
		if n == 0 && payload != nil {
			t.Fatalf("empty list encoded to %d bytes", len(payload))
		}
		var got []graph.NodeID
		dec := idListDecoder{b: payload}
		for id, ok := dec.next(); ok; id, ok = dec.next() {
			got = append(got, id)
		}
		if !slices.Equal(got, ids) {
			t.Fatalf("decoded %v, want %v", got, ids)
		}
	}
}

// Dense consecutive ID lists — the common request pattern — must get the
// promised compression: one byte per ID after the first.
func TestIDListCompression(t *testing.T) {
	ids := make([]graph.NodeID, 128)
	for i := range ids {
		ids[i] = graph.NodeID(100000 + i)
	}
	// 3-byte first delta + 1 byte per subsequent ID
	if got, want := len(appendIDList(nil, ids)), 3+(len(ids)-1); got != want {
		t.Fatalf("size = %d, want %d", got, want)
	}
}

// FuzzDecodeSection drives the checked reduce-payload decoder with
// arbitrary bytes: it must never panic or read out of bounds, and whenever
// it accepts a payload the trusted (panicking) decoder must agree with it
// byte for byte.
func FuzzDecodeSection(f *testing.F) {
	// Sparse + absent sections, dense bitmap form, a payload whose present
	// bitmap promises a section the length header omits, and the
	// hash-variant geometry (sections over the global ID space).
	f.Add(buildReducePayload([][]byte{
		{sectionSparse, 2, 0x01, 0xaa, 0xbb, 0x04, 0xcc, 0xdd}, nil,
	}), uint8(2), uint8(0), uint8(2))
	f.Add(buildReducePayload([][]byte{
		nil, {sectionDense, 1, 0b1001, 1, 2, 3, 4}, nil, nil,
	}), uint8(4), uint8(1), uint8(2))
	f.Add([]byte{0b11, 0x05, 0x01}, uint8(2), uint8(1), uint8(4))
	f.Add(hashGeometryPayload(), uint8(2), uint8(0), uint8(4))
	f.Add([]byte{}, uint8(1), uint8(0), uint8(4))
	// Every section present with 4-byte values, an explicit all-absent
	// bitmap (valid, though the encoder sends an empty payload instead), and
	// a section length varint that never terminates.
	f.Add(buildReducePayload([][]byte{
		{sectionSparse, 1, 0x00, 9, 9, 9, 9}, {sectionSparse, 1, 0x02, 8, 8, 8, 8},
	}), uint8(2), uint8(1), uint8(4))
	f.Add(buildReducePayload([][]byte{nil, nil, nil, nil}), uint8(4), uint8(3), uint8(8))
	f.Add([]byte{0b1, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(1), uint8(0), uint8(4))
	f.Fuzz(func(t *testing.T, payload []byte, threads, tid, valSize uint8) {
		th := int(threads)%8 + 1
		ti := int(tid) % th
		vs := int(valSize) % 17
		sec, ok := reduceSectionChecked(payload, ti, th)
		if !ok {
			return
		}
		if tsec := reduceSection(payload, ti, th); !bytes.Equal(tsec, sec) {
			t.Fatalf("trusted and checked decoders disagree: %x vs %x", tsec, sec)
		}
		// Entry validation over the section must terminate without panics
		// whatever it decides.
		validSectionEntries(sec, vs)
	})
}
