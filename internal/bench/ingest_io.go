package bench

import (
	"os"
	"path/filepath"

	"kimbap/internal/gen"
	"kimbap/internal/graph"
)

// The ingest_io records measure the out-of-core ingestion path against the
// materialize-then-build twin on the same on-disk bytes. Three families:
// ingest_io_text streams a sharded text edge list through the two-scan
// build, ingest_io_kmb2 is the in-memory twin (decode every KMB2 block
// into edge columns, then Builder.Build), and ingest_io_stream_build runs
// StreamBuilder over the same KMB2 file at a worker sweep. The
// peak_alloc_bytes column is the point: streaming stays at O(CSR) plus the
// fixed block working set while the twin pays O(edges) + O(CSR).

// ioPreset is the fixed input for the IO records: the power-law social
// analogue, the ingestion suite's usual subject.
const ioPreset = gen.Friendster

// ioStreamWorkers is the worker sweep for the stream-build record.
var ioStreamWorkers = []int{1, 4, 8}

// ioFixture is the preset graph written out in both streamable formats.
type ioFixture struct {
	g          *graph.Graph
	text, kmb2 string
}

// ioFixtureFor materializes the fixture under a temp dir; the cleanup
// removes it. Failures panic like the rest of the harness — a broken
// fixture means the suite itself is broken, not the measured code.
func (c Config) ioFixtureFor(p gen.Preset) (ioFixture, func()) {
	g := c.graphFor(p)
	dir, err := os.MkdirTemp("", "kimbap-ingest-io-")
	if err != nil {
		panic(err)
	}
	fx := ioFixture{
		g:    g,
		text: filepath.Join(dir, "graph.el"),
		kmb2: filepath.Join(dir, "graph.kmb2"),
	}
	f, err := os.Create(fx.text)
	if err != nil {
		panic(err)
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		panic(err)
	}
	if err := f.Close(); err != nil {
		panic(err)
	}
	if err := graph.SaveKMB2(fx.kmb2, g, 0); err != nil {
		panic(err)
	}
	return fx, func() { os.RemoveAll(dir) }
}

// csrBytes is the final CSR footprint: offsets, dsts, and (when weighted)
// weights — the denominator of the streaming peak-allocation gate.
func csrBytes(g *graph.Graph) int64 {
	b := int64(g.NumNodes()+1)*8 + g.NumEdges()*4
	if g.Weighted() {
		b += g.NumEdges() * 8
	}
	return b
}

// streamText runs the chunked text parse + two-scan build at w workers.
func (fx ioFixture) streamText(w int) {
	src, err := graph.OpenText(fx.text)
	if err != nil {
		panic(err)
	}
	defer src.Close()
	if _, err := graph.NewStreamBuilder(src).SetWorkers(w).Build(); err != nil {
		panic(err)
	}
}

// streamKMB2 runs the two-scan build over the KMB2 block file at w workers.
func (fx ioFixture) streamKMB2(w int) {
	src, err := graph.OpenKMB2(fx.kmb2)
	if err != nil {
		panic(err)
	}
	defer src.Close()
	if _, err := graph.NewStreamBuilder(src).SetWorkers(w).Build(); err != nil {
		panic(err)
	}
}

// loadKMB2 is the materialize-then-build twin on the same file.
func (fx ioFixture) loadKMB2(w int) {
	if _, err := graph.LoadKMB2(fx.kmb2, w); err != nil {
		panic(err)
	}
}

// ingestIOPerf returns the ingest_io_* records for the perf trajectory.
func (c Config) ingestIOPerf() []PerfRecord {
	fx, cleanup := c.ioFixtureFor(ioPreset)
	defer cleanup()
	name := func(fam string) string { return fam + "/" + string(ioPreset) }
	recs := []PerfRecord{
		c.timeOp(PerfRecord{Name: name("ingest_io_text"), Hosts: 1, Threads: c.Threads},
			func() {}, func() { fx.streamText(c.Threads) }),
		c.timeOp(PerfRecord{Name: name("ingest_io_kmb2"), Hosts: 1, Threads: c.Threads},
			func() {}, func() { fx.loadKMB2(c.Threads) }),
	}
	for _, w := range ioStreamWorkers {
		recs = append(recs,
			c.timeOp(PerfRecord{Name: name("ingest_io_stream_build"), Hosts: 1, Threads: w},
				func() {}, func() { fx.streamKMB2(w) }))
	}
	return recs
}
