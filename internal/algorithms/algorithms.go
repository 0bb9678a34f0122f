// Package algorithms implements the paper's seven graph algorithms (Table
// 2) on top of the Kimbap node-property map:
//
//	LV      Louvain community detection        (adjacent + trans-vertex)
//	LD      Leiden community detection         (adjacent + trans-vertex)
//	MSF     Boruvka minimum spanning forest    (trans-vertex)
//	CC-LP   label-propagation components       (adjacent-vertex)
//	CC-SCLP shortcutting label propagation     (adjacent + trans-vertex)
//	CC-SV   Shiloach-Vishkin components        (trans-vertex)
//	MIS     priority-based maximal independent (adjacent-vertex)
//
// Each implementation is the BSP program the Kimbap compiler would emit
// (Figure 8): explicit request / reduce / broadcast synchronization with
// the §5.2 optimizations applied. When the configured map variant lacks
// GAR (the §6.4 ablation backends), the generated master-elision would
// read unmaterialized values, so the drivers issue the corresponding
// requests explicitly; on the Full variant those requests are no-ops.
package algorithms

import (
	"slices"

	"kimbap/internal/graph"
	"kimbap/internal/npm"
	"kimbap/internal/runtime"
)

// Config selects the node-property map backend and safety limits shared by
// all algorithms.
type Config struct {
	// Variant picks the npm implementation; zero value is npm.Full.
	Variant npm.Variant
	// Store backs the MC variant.
	Store npm.MCStore
	// MaxRounds caps BSP rounds as a safety net; 0 means a generous
	// default.
	MaxRounds int
	// StatsSink, if set, receives each property map's read-locality
	// counters when an algorithm finishes (the §4.2 measurement).
	StatsSink ReadStatsSink
	// LogRounds records per-BSP-round activity (active vertices, reduce
	// bytes sent by this host) into the algorithm's stats.
	LogRounds bool

	// dense forces every round to visit all local nodes, disabling the
	// frontier-driven sparse execution of CC/MIS/MSF. Only this package's
	// dense-vs-sparse equivalence tests set it; outputs are identical
	// either way.
	dense bool
}

// ReadStatsSink receives read-locality counters.
type ReadStatsSink interface {
	Record(master, remote int64)
}

// recordStats forwards a map's counters to the sink, if any.
func (c Config) recordStats(m interface{ ReadStats() (int64, int64) }) {
	if c.StatsSink != nil {
		c.StatsSink.Record(m.ReadStats())
	}
}

func (c Config) maxRounds() int {
	if c.MaxRounds > 0 {
		return c.MaxRounds
	}
	return 1 << 20
}

// requestActive reports whether active-node reads must be requested
// (true for non-GAR backends; see the package comment).
func (c Config) requestActive() bool {
	return c.Variant != npm.Full && c.Variant != ""
}

// reads lists maps for a runtime.Phase's Reads: the maps on non-GAR
// backends, none on GAR (the copy keeps GAR runs from allocating).
func (c Config) reads(ms ...runtime.SyncMap) []runtime.SyncMap {
	if !c.requestActive() {
		return nil
	}
	return slices.Clone(ms)
}

// syncs lists maps for a runtime.Phase's syncs.
func syncs(ms ...runtime.SyncMap) []runtime.SyncMap { return ms }

// newFrontier attaches a fresh frontier over h's local proxies to m when
// frontier-driven execution applies: the backend must implement
// npm.FrontierSink (only the Full variant does) and dense must be off.
// Returns nil otherwise; callers fall back to dense rounds on nil.
func (c Config) newFrontier(h *runtime.Host, m any) *runtime.Frontier {
	if c.dense {
		return nil
	}
	sink, ok := m.(npm.FrontierSink)
	if !ok {
		return nil
	}
	f := runtime.NewFrontier(h.HP.NumLocal())
	sink.SetFrontier(f)
	return f
}

// RoundStats is the per-BSP-round activity log filled under
// Config.LogRounds (see runtime.RoundStats).
type RoundStats = runtime.RoundStats

// roundLog returns the round log of a run filling out, or nil when
// Config.LogRounds is off.
func (c Config) roundLog(h *runtime.Host, out *RoundStats) *runtime.RoundLog {
	if !c.LogRounds {
		return nil
	}
	return runtime.NewRoundLog(h, out)
}

func (c Config) newNodeMap(h *runtime.Host, op npm.ReduceOp[graph.NodeID]) npm.Map[graph.NodeID] {
	return npm.New(npm.Options[graph.NodeID]{
		Host: h, Op: op, Codec: npm.NodeIDCodec{}, Variant: c.Variant, Store: c.Store,
		TrackReads: c.StatsSink != nil,
	})
}

func (c Config) newFloatMap(h *runtime.Host, op npm.ReduceOp[float64]) npm.Map[float64] {
	return npm.New(npm.Options[float64]{
		Host: h, Op: op, Codec: npm.Float64Codec{}, Variant: c.Variant, Store: c.Store,
		TrackReads: c.StatsSink != nil,
	})
}

// OperatorKind records which operator classes an application uses
// (the paper's Table 2).
type OperatorKind struct {
	Name           string
	AdjacentVertex bool
	TransVertex    bool
}

// Table2 is the application/operator registry reproduced from the paper.
var Table2 = []OperatorKind{
	{Name: "LV", AdjacentVertex: true, TransVertex: true},
	{Name: "LD", AdjacentVertex: true, TransVertex: true},
	{Name: "MSF", AdjacentVertex: false, TransVertex: true},
	{Name: "CC-LP", AdjacentVertex: true, TransVertex: false},
	{Name: "CC-SCLP", AdjacentVertex: true, TransVertex: true},
	{Name: "CC-SV", AdjacentVertex: false, TransVertex: true},
	{Name: "MIS", AdjacentVertex: true, TransVertex: false},
}

// initOwn sets every local proxy's property to its own node ID and
// publishes the values (the Figure 4 initialization idiom).
func initOwn(h *runtime.Host, m npm.Map[graph.NodeID]) {
	h.ParForNodes(func(_ int, local graph.NodeID) {
		gid := h.HP.GlobalID(local)
		m.Set(gid, gid)
	})
	m.InitSync()
}

// requestLocalProxies requests the properties of every local proxy. Non-GAR
// backends need this before reading active-node properties; it is cheap
// no-ops on Full.
func requestLocalProxies[V comparable](h *runtime.Host, m npm.Map[V]) {
	h.ParForNodes(func(_ int, local graph.NodeID) {
		m.Request(h.HP.GlobalID(local))
	})
	m.RequestSync()
}

// readAllMasters copies this host's master values into out (indexed by
// global node ID); entries outside the master range are untouched.
func readAllMasters[V comparable](h *runtime.Host, m npm.Map[V], out []V) {
	lo, hi := h.HP.MasterRangeGlobal()
	if hi > lo {
		for n := lo; n < hi; n++ {
			m.Request(n)
		}
		m.RequestSync()
		for n := lo; n < hi; n++ {
			out[n] = m.Read(n)
		}
	} else {
		m.RequestSync()
	}
}

// CollectNodeValues runs after an SPMD algorithm: each host fills in its
// master range of the shared output slice. The slice must be pre-allocated
// with the global node count; hosts write disjoint ranges.
func CollectNodeValues[V comparable](h *runtime.Host, m npm.Map[V], out []V) {
	readAllMasters(h, m, out)
}
