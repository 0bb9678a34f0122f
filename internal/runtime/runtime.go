// Package runtime simulates the distributed cluster Kimbap runs on: a set
// of hosts, each with its own graph partition and pool of worker threads,
// connected by a comm.Transport. One OS process hosts the whole cluster;
// each simulated host runs the application program in its own goroutine and
// communicates with peers only through messages, mirroring the paper's
// 256-host x 48-thread Stampede2 deployments at laptop scale.
//
// The package also provides the BSP building blocks the generated code in
// the paper relies on: parallel-for over local nodes with per-thread
// contexts (for conflict-free thread-local maps), frontiers over par's
// concurrent bitsets, distributed reducers, per-phase time accounting
// that separates computation from communication, and the round driver
// (Loop) that sequences every BSP round.
package runtime

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"time"

	"sync/atomic"

	"kimbap/internal/comm"
	"kimbap/internal/graph"
	"kimbap/internal/partition"
)

// Config describes a simulated cluster.
type Config struct {
	// NumHosts is the number of simulated hosts. Defaults to 1 if zero.
	NumHosts int
	// ThreadsPerHost is the worker pool size per host (the paper uses 48).
	// Defaults to 4 if zero.
	ThreadsPerHost int
	// Policy is the partitioning policy. Defaults to partition.OEC.
	Policy partition.Policy
	// UseTCP selects the real-socket transport instead of the in-memory
	// channel transport.
	UseTCP bool
}

func (c Config) withDefaults() Config {
	if c.NumHosts == 0 {
		c.NumHosts = 1
	}
	if c.ThreadsPerHost == 0 {
		c.ThreadsPerHost = 4
	}
	if c.Policy == "" {
		c.Policy = partition.OEC
	}
	return c
}

// check rejects a defaulted config NewCluster cannot build: a negative
// host or thread count, or a policy the partitioner does not know.
func (c Config) check() error {
	switch {
	case c.NumHosts < 0:
		return fmt.Errorf("runtime: NumHosts %d is negative", c.NumHosts)
	case c.ThreadsPerHost < 0:
		return fmt.Errorf("runtime: ThreadsPerHost %d is negative", c.ThreadsPerHost)
	case !slices.Contains(partition.Policies, c.Policy):
		return fmt.Errorf("runtime: unknown partitioning policy %q (want one of %v)", c.Policy, partition.Policies)
	}
	return nil
}

// Cluster is a partitioned graph plus the communication fabric connecting
// its hosts.
type Cluster struct {
	Config Config
	Part   *partition.Partitioned
	hosts  []*Host
}

// Host is one simulated machine: its partition, endpoint, worker pool and
// timers. Application code receives a *Host and runs identically on every
// host (SPMD).
type Host struct {
	Rank    int
	HP      *partition.HostPartition
	EP      comm.Endpoint
	Threads int
	Timers  Timers

	pool   *workerPool
	mapSeq atomic.Int64
}

// NextMapID returns this host's next property-map sequence number. SPMD
// programs create maps in the same order on every host, so the k-th map on
// each host shares the same ID — used to namespace keys in shared external
// stores.
func (h *Host) NextMapID() int64 { return h.mapSeq.Add(1) }

// NewCluster partitions g and connects the hosts. It returns an error
// for a negative host or thread count or an unknown policy.
func NewCluster(g *graph.Graph, cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if err := cfg.check(); err != nil {
		return nil, err
	}
	part := partition.Partition(g, cfg.NumHosts, cfg.Policy)
	var eps []comm.Endpoint
	if cfg.UseTCP {
		tcp, err := comm.NewTCPCluster(cfg.NumHosts)
		if err != nil {
			return nil, fmt.Errorf("runtime: %w", err)
		}
		for _, e := range tcp {
			eps = append(eps, e)
		}
	} else {
		for _, e := range comm.NewLocalCluster(cfg.NumHosts) {
			eps = append(eps, e)
		}
	}
	c := &Cluster{Config: cfg, Part: part}
	for i := 0; i < cfg.NumHosts; i++ {
		h := &Host{
			Rank:    i,
			HP:      part.Hosts[i],
			EP:      eps[i],
			Threads: cfg.ThreadsPerHost,
			pool:    newWorkerPool(cfg.ThreadsPerHost),
		}
		c.hosts = append(c.hosts, h)
	}
	return c, nil
}

// Hosts returns the cluster's hosts.
func (c *Cluster) Hosts() []*Host { return c.hosts }

// Run executes prog concurrently on every host (SPMD) and blocks until all
// hosts return. A panic on any host is re-raised on the caller after all
// other hosts have been given a chance to finish or panic.
func (c *Cluster) Run(prog func(h *Host)) {
	var wg sync.WaitGroup
	panics := make([]any, len(c.hosts))
	for i, h := range c.hosts {
		wg.Add(1)
		go func(i int, h *Host) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[i] = r
				}
			}()
			prog(h)
		}(i, h)
	}
	wg.Wait()
	for i, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("runtime: host %d panicked: %v", i, p))
		}
	}
}

// Close releases transport resources and parks each host's worker pool.
func (c *Cluster) Close() {
	for _, h := range c.hosts {
		h.EP.Close()
		if h.pool != nil {
			h.pool.close()
		}
	}
}

// CommStats sums messages and bytes sent by all hosts.
func (c *Cluster) CommStats() (messages, bytes int64) {
	for _, h := range c.hosts {
		m, b := h.EP.Stats()
		messages += m
		bytes += b
	}
	return messages, bytes
}

// CommStatsByTag sums messages and bytes sent by all hosts, broken down by
// message tag (both slices have comm.NumTags entries, indexed by comm.Tag).
func (c *Cluster) CommStatsByTag() (messages, bytes []int64) {
	messages = make([]int64, comm.NumTags)
	bytes = make([]int64, comm.NumTags)
	for _, h := range c.hosts {
		m, b := h.EP.StatsByTag()
		for t := range m {
			messages[t] += m[t]
			bytes[t] += b[t]
		}
	}
	return messages, bytes
}

// Timers accumulates wall-clock time per activity class on one host.
// The paper's Figures 11-12 break execution into computation and
// communication; §6.4 additionally attributes GAR's gains to request,
// reduce, and their synchronization separately, so the communication side
// is split by phase.
type Timers struct {
	Compute   time.Duration
	Request   time.Duration // request-sync phases
	Reduce    time.Duration // reduce-sync phases and quiescence reductions
	Broadcast time.Duration // master-to-mirror broadcasts
}

// Comm returns total communication time across all sync phases.
func (t Timers) Comm() time.Duration { return t.Request + t.Reduce + t.Broadcast }

// TimeCompute runs f and adds its duration to the computation timer.
func (h *Host) TimeCompute(f func()) {
	start := time.Now()
	f()
	h.Timers.Compute += time.Since(start)
}

// TimeComm runs f and adds its duration to the reduce-phase timer; prefer
// the phase-specific variants where the phase is known.
func (h *Host) TimeComm(f func()) { h.TimeReduce(f) }

// TimeRequest runs f and adds its duration to the request-phase timer.
func (h *Host) TimeRequest(f func()) {
	start := time.Now()
	f()
	h.Timers.Request += time.Since(start)
}

// TimeReduce runs f and adds its duration to the reduce-phase timer.
func (h *Host) TimeReduce(f func()) {
	start := time.Now()
	f()
	h.Timers.Reduce += time.Since(start)
}

// TimeBroadcast runs f and adds its duration to the broadcast timer.
func (h *Host) TimeBroadcast(f func()) {
	start := time.Now()
	f()
	h.Timers.Broadcast += time.Since(start)
}

// ResetTimers zeroes the host's timers.
func (h *Host) ResetTimers() { h.Timers = Timers{} }

// ParFor runs fn(tid, i) for every i in [0, n) on the host's persistent
// worker pool. Work is claimed in chunks off a shared atomic cursor so
// skewed iterations (power-law hubs) balance across threads; nothing is
// allocated per call, so BSP rounds that loop over ParFor stay
// steady-state allocation free. fn must be safe for concurrent invocation
// with distinct i. Nested or concurrent ParFor calls on one host run the
// inner loop serially (the pool serves one round at a time).
//
//kimbap:conflictfree
func (h *Host) ParFor(n int, fn func(tid, i int)) {
	if n == 0 {
		return
	}
	threads := h.Threads
	if threads > n {
		threads = n
	}
	if threads <= 1 || h.pool == nil || !h.pool.busy.CompareAndSwap(false, true) {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	defer h.pool.busy.Store(false)
	// Chunks are sized so each thread sees several, letting skewed
	// iterations rebalance, but capped to bound scheduling overhead.
	chunk := n / (threads * 8)
	if chunk < 1 {
		chunk = 1
	}
	if chunk > 256 {
		chunk = 256
	}
	h.pool.parFor(n, chunk, fn)
}

// ParForNodes runs fn over all local proxies (masters and mirrors).
func (h *Host) ParForNodes(fn func(tid int, node graph.NodeID)) {
	h.ParFor(h.HP.NumLocal(), func(tid, i int) { fn(tid, graph.NodeID(i)) })
}

// ParForMasters runs fn over local master proxies only (the compiler's
// master-iterator optimization from §5.2).
func (h *Host) ParForMasters(fn func(tid int, node graph.NodeID)) {
	h.ParFor(h.HP.NumMasters, func(tid, i int) { fn(tid, graph.NodeID(i)) })
}

// frontierDenseDivisor is the density threshold of ParForActive's
// Ligra-style representation switch: at |active| >= |V|/16 the frontier is
// iterated as a parallel bitset scan (no compaction, word-level skips of
// inactive runs); below it the set bits are compacted into an index list
// so per-round work is O(|active|) plus one word scan.
const frontierDenseDivisor = 16

// frontierSerialCutoff is the frontier size at or below which
// ParForActive runs inline on the calling goroutine: waking the worker
// pool costs more than visiting a few hundred vertices, and late rounds of
// frontier-driven algorithms hit this every round.
const frontierSerialCutoff = 256

// ParForActive runs fn over the vertices in f's current set, on the
// host's worker pool. The iteration form switches on frontier density
// (see frontierDenseDivisor); both forms invoke fn with distinct vertices
// only, so the same conflict-freedom argument as ParFor applies. fn may
// f.Activate concurrently — activations land in the next set and never
// affect the round in flight.
//
//kimbap:conflictfree
func (h *Host) ParForActive(f *Frontier, fn func(tid int, node graph.NodeID)) {
	h.parForActive(f, f.Size(), fn)
}

// parForActive is ParForActive restricted to the vertices below hi (a
// host's masters are its local IDs below NumMasters). The form follows
// the whole set's size.
//
//kimbap:conflictfree
func (h *Host) parForActive(f *Frontier, hi int, fn func(tid int, node graph.NodeID)) {
	n := f.Count()
	if n == 0 {
		return
	}
	// Small frontiers run inline on the calling goroutine (see
	// frontierSerialCutoff).
	if n <= frontierSerialCutoff {
		f.cur.ForEachSetIn(0, hi, func(i int) { fn(0, graph.NodeID(i)) })
		return
	}
	if n*frontierDenseDivisor >= f.Size() {
		cur, words := f.cur, f.cur.Words()
		if hi < f.Size() {
			words = hi / 64
		}
		h.ParFor(words, func(tid, w int) {
			word := cur.MaskedWord(w)
			for word != 0 {
				fn(tid, graph.NodeID(w*64+bits.TrailingZeros64(word)))
				word &= word - 1
			}
		})
		// The word hi cuts runs inline, after the pool is done.
		if hi < f.Size() && hi%64 != 0 {
			word := cur.MaskedWord(words) & (1<<(hi%64) - 1)
			for word != 0 {
				fn(0, graph.NodeID(words*64+bits.TrailingZeros64(word)))
				word &= word - 1
			}
		}
		return
	}
	idx := f.compact()
	if hi < f.Size() {
		cut, _ := slices.BinarySearch(idx, int32(hi))
		idx = idx[:cut]
	}
	h.ParFor(len(idx), func(tid, i int) { fn(tid, graph.NodeID(idx[i])) })
}

// Barrier synchronizes all hosts.
func (h *Host) Barrier() { comm.Barrier(h.EP) }
