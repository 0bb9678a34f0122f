// Package npm implements Kimbap's core contribution: the distributed,
// concurrent node-property map (paper §3.1, §4). A Map stores one property
// value per graph node, distributed so that each host owns the canonical
// ("master") values for its partition's master nodes and caches remote
// values it has requested.
//
// The user-level API mirrors the paper's Figure 2 (Read, Reduce, Set); the
// low-level API used by compiler-generated code mirrors Figure 5
// (Request, RequestSync, ReduceSync, BroadcastSync, PinMirrors,
// UnpinMirrors, ResetUpdated, IsUpdated).
//
// Four runtime variants reproduce the §6.4 ablation:
//
//   - Full (SGR+CF+GAR): the Kimbap design. Graph-partition-aware
//     representation stores master properties in a dense vector and
//     requested remote properties behind a dense global→cache slot table
//     (Figure 6); reductions go to per-thread buffers — dense over local
//     proxy IDs, hash maps for other keys — that are combined conflict-free
//     by key-range passes (Figure 7); synchronization is one
//     scatter-gather-reduce message per host pair per round.
//   - SGRCF (SGR+CF): like Full but without GAR — properties are
//     distributed by modulo hash, and both owned and cached values live in
//     a generic hash map instead of the partition-aware layout.
//   - SGROnly: like SGRCF but all threads reduce into a single shared
//     sharded map under locks, exposing the thread conflicts CF avoids.
//   - MC: a Memcached-style client — values live in an external key-value
//     store with string keys; reductions are get/combine/CAS retry loops
//     and reads are served by mget-filled caches.
//
// All variants implement the same Map interface and run the same
// compiler-generated programs, exactly as in the paper's evaluation.
package npm

import (
	"fmt"
	"slices"

	"kimbap/internal/graph"
	"kimbap/internal/runtime"
)

// Variant selects the node-property map implementation (§6.4 ablation).
type Variant string

// Runtime variants evaluated in Figure 11.
const (
	Full    Variant = "sgr+cf+gar" // the Kimbap design
	SGRCF   Variant = "sgr+cf"     // no partition-aware representation
	SGROnly Variant = "sgr-only"   // shared concurrent map, thread conflicts
	MC      Variant = "memcached"  // external key-value store with CAS
	// Vite models the hand-optimized Louvain system's reduction strategy:
	// SGR with one host-wide shared map built behind a single lock (the
	// paper attributes Vite's gap to its single-threaded map construction
	// and shared-map atomics).
	Vite Variant = "vite"
)

// Variants lists the ablation variants in Figure 11 order (Vite is charted
// alongside them but is a baseline, not a Kimbap runtime variant).
var Variants = []Variant{MC, SGROnly, SGRCF, Full}

// Known reports whether New builds variant v ("" selects Full).
func (v Variant) Known() bool {
	return v == "" || v == Vite || slices.Contains(Variants, v)
}

// GAR reports whether v has the partition-aware representation ("" selects
// Full, the only variant that does). Under GAR a host reads its local
// proxies' values without requesting them; every other backend must
// request even active-node reads.
func (v Variant) GAR() bool { return v == Full || v == "" }

// Map is the node-property map API. Type parameter V is the property type;
// it must be comparable so the runtime can detect whether a reduction
// changed a value (the quiescence condition of KimbapWhile loops).
//
// Methods marked "collective" must be called by every host in the same
// order; they synchronize internally.
type Map[V comparable] interface {
	// Read returns the property value of the given global node. The value
	// must be locally materialized: a master value, a pinned mirror value,
	// or a remote value requested in the preceding request phase. Reading
	// an unmaterialized node panics, which surfaces missing Request bugs.
	Read(n graph.NodeID) V

	// Reduce merges v into node n's property using the map's reduction
	// operator. tid is the calling worker thread's index from ParFor; the
	// Full and SGRCF variants use it to select the conflict-free
	// thread-local map. The merged value becomes visible only after
	// ReduceSync (except in the MC variant, which reduces through the
	// external store immediately).
	Reduce(tid int, n graph.NodeID, v V)

	// Set assigns an initial value. It is meant for initialization only
	// and writes whatever proxies of n are materialized on this host.
	Set(n graph.NodeID, v V)

	// InitSync publishes Set values to their owning hosts. The Full
	// variant needs no publication (masters are set in place, per the
	// graph-partition-aware layout) and treats this as a no-op; the
	// hash-distributed variants buffer Sets for nodes whose hash owner is
	// elsewhere and flush them here. Collective. Call once after the
	// initialization loop, before the first read or reduce.
	InitSync()

	// Request marks node n's property for retrieval in the next
	// RequestSync. Requests are de-duplicated with a concurrent bitset.
	// Requesting a master or pinned mirror is a no-op.
	Request(n graph.NodeID)

	// RequestSync exchanges requests and responses with all hosts and
	// materializes the requested remote values for reading. Collective.
	RequestSync()

	// ReduceSync combines thread-local reductions, scatters partial values
	// to owner hosts, gathers and applies them to master values, and drops
	// the (now stale) remote cache. Collective.
	ReduceSync()

	// BroadcastSync pushes updated master values to pinned mirrors on
	// other hosts. Collective; only meaningful after PinMirrors.
	BroadcastSync()

	// PinMirrors materializes this host's mirror proxies in the map and
	// fills them with current master values (a full broadcast).
	// Collective.
	PinMirrors()

	// UnpinMirrors drops mirror values from the map.
	UnpinMirrors()

	// ResetUpdated clears the update flag at the start of a BSP round.
	ResetUpdated()

	// IsUpdated reports whether any reduction changed any master value
	// since the last ResetUpdated, across all hosts. Collective.
	IsUpdated() bool

	// ReadStats returns how many reads were served by master values vs
	// remote (mirror or requested) values, for the §4.2 locality study.
	ReadStats() (master, remote int64)
}

// FrontierSink is implemented by map variants that can drive frontier
// activation from their sync phases: after attaching a frontier, every
// local proxy (master or pinned mirror) whose value changes during
// ReduceSync or a broadcast is activated in the frontier's next set.
// Frontier-driven algorithms type-assert for it and fall back to dense
// rounds when the variant does not implement it.
type FrontierSink interface {
	SetFrontier(f *runtime.Frontier)
}

// Options configure map construction.
type Options[V comparable] struct {
	// Host is the constructing host's runtime context.
	Host *runtime.Host
	// Op is the reduction operator (associative and commutative).
	Op ReduceOp[V]
	// Codec serializes values for the wire.
	Codec Codec[V]
	// Variant selects the implementation; zero value means Full.
	Variant Variant
	// Store supplies the external key-value cluster; required for MC.
	Store MCStore
	// TrackReads enables the §4.2 read-locality counters. Off by default:
	// two atomic increments per property read are measurable on the hot
	// path.
	TrackReads bool
}

// New constructs a node-property map of the configured variant.
func New[V comparable](opts Options[V]) Map[V] {
	if opts.Host == nil {
		panic("npm: Options.Host is required")
	}
	if opts.Op.Combine == nil {
		panic("npm: Options.Op is required")
	}
	if opts.Codec == nil {
		panic("npm: Options.Codec is required")
	}
	switch opts.Variant {
	case Full, "":
		return newFullMap(opts)
	case SGRCF:
		return newHashMapVariant(opts, false, 16)
	case SGROnly:
		return newHashMapVariant(opts, true, 16)
	case Vite:
		return newHashMapVariant(opts, true, 1)
	case MC:
		return newMCMap(opts)
	default:
		panic(fmt.Sprintf("npm: unknown variant %q", opts.Variant))
	}
}

// ReduceOp is an associative, commutative reduction operator with an
// optional identity element (used by partitioning-invariant optimizations
// that reset mirrors instead of broadcasting).
type ReduceOp[V comparable] struct {
	Name        string
	Combine     func(a, b V) V
	Identity    V
	HasIdentity bool
}

// MinNodeID is the min operator over node IDs (CC algorithms).
func MinNodeID() ReduceOp[graph.NodeID] {
	return ReduceOp[graph.NodeID]{
		Name:        "min",
		Combine:     func(a, b graph.NodeID) graph.NodeID { return min(a, b) },
		Identity:    graph.InvalidNode,
		HasIdentity: true,
	}
}

// MaxNodeID is the max operator over node IDs.
func MaxNodeID() ReduceOp[graph.NodeID] {
	return ReduceOp[graph.NodeID]{
		Name:        "max",
		Combine:     func(a, b graph.NodeID) graph.NodeID { return max(a, b) },
		Identity:    0,
		HasIdentity: true,
	}
}

// SumFloat64 is the + operator over float64 (modularity accumulation).
func SumFloat64() ReduceOp[float64] {
	return ReduceOp[float64]{
		Name:        "sum",
		Combine:     func(a, b float64) float64 { return a + b },
		Identity:    0,
		HasIdentity: true,
	}
}

// MinFloat64 is the min operator over float64.
func MinFloat64() ReduceOp[float64] {
	return ReduceOp[float64]{
		Name:    "min",
		Combine: func(a, b float64) float64 { return min(a, b) },
	}
}

// Overwrite keeps the most recently reduced value. It is associative and
// commutative only when all concurrent writers agree, which holds for the
// algorithm phases that use it (e.g. publishing per-node decisions).
func Overwrite[V comparable]() ReduceOp[V] {
	return ReduceOp[V]{
		Name:    "overwrite",
		Combine: func(_, b V) V { return b },
	}
}
