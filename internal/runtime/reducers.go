package runtime

import (
	"math"
	"sync/atomic"

	"kimbap/internal/comm"
)

// Distributed reducers: each host accumulates locally with atomic
// operations; Sync (a collective that every host must call) combines the
// local values across the cluster and makes the global value readable
// everywhere. The paper's Figure 4 uses a BoolReducer to detect quiescence
// of the hook/shortcut outer loop.

// BoolReducer is a distributed logical-OR reducer.
type BoolReducer struct {
	local  atomic.Bool
	global bool
}

// Set overwrites the local value (initialization only).
func (r *BoolReducer) Set(v bool) {
	r.local.Store(v)
	r.global = v
}

// Reduce ORs v into the local value. Safe for concurrent use. It stores
// only while the flag is still false: callers raise it once per effective
// edge or merge, and a store on every call would bounce the flag's cache
// line between the threads that share it.
func (r *BoolReducer) Reduce(v bool) {
	if v && !r.local.Load() {
		r.local.Store(true)
	}
}

// Sync combines local values across hosts. Collective: all hosts must call.
func (r *BoolReducer) Sync(ep comm.Endpoint) {
	r.global = comm.AllReduceBool(ep, r.local.Load())
}

// Read returns the global value as of the last Sync.
func (r *BoolReducer) Read() bool { return r.global }

// SumReducer is a distributed float64 sum reducer.
type SumReducer struct {
	local  atomicFloat64
	global float64
}

// Set overwrites the local value (initialization only).
func (r *SumReducer) Set(v float64) {
	r.local.Store(v)
	r.global = v
}

// Reduce adds v to the local value. Safe for concurrent use.
func (r *SumReducer) Reduce(v float64) { r.local.Add(v) }

// Sync combines local sums across hosts. Collective.
func (r *SumReducer) Sync(ep comm.Endpoint) {
	r.global = comm.AllReduceFloat64(ep, r.local.Load())
}

// Read returns the global sum as of the last Sync.
func (r *SumReducer) Read() float64 { return r.global }

// CountReducer is a distributed int64 sum reducer.
type CountReducer struct {
	local  atomic.Int64
	global int64
}

// Set overwrites the local value (initialization only).
func (r *CountReducer) Set(v int64) {
	r.local.Store(v)
	r.global = v
}

// Reduce adds v to the local count. Safe for concurrent use.
func (r *CountReducer) Reduce(v int64) { r.local.Add(v) }

// Sync combines local counts across hosts. Collective.
func (r *CountReducer) Sync(ep comm.Endpoint) {
	r.global = comm.AllReduceInt64(ep, r.local.Load())
}

// Read returns the global count as of the last Sync.
func (r *CountReducer) Read() int64 { return r.global }

// atomicFloat64 is a lock-free float64 accumulator built on a uint64 CAS
// loop (the standard library has no atomic float).
type atomicFloat64 struct {
	bits atomic.Uint64
}

func (a *atomicFloat64) Load() float64 { return math.Float64frombits(a.bits.Load()) }

func (a *atomicFloat64) Store(v float64) { a.bits.Store(math.Float64bits(v)) }

func (a *atomicFloat64) Add(v float64) {
	for {
		old := a.bits.Load()
		want := math.Float64bits(math.Float64frombits(old) + v)
		if a.bits.CompareAndSwap(old, want) {
			return
		}
	}
}
