// Package gluon reimplements the execution strategy of Gluon (Dathathri et
// al., PLDI 2018), the adjacent-vertex framework the paper compares
// against for connected components (§6.2, Figures 9c and 10c).
//
// Gluon differs from Kimbap's general node-property map in three ways:
// remote accesses are restricted to mirror proxies, which are always
// materialized (no request phases exist at all); threads reduce directly
// into the cached proxy values with atomics during compute; and
// synchronization is a fixed reduce-then-broadcast of changed values per
// round, exploiting the partition's structural and temporal invariants
// (positional dirty bitmasks over precomputed proxy exchange lists).
//
// Only label-propagation connected components is provided — the system is
// by construction unable to express trans-vertex algorithms like CC-SV,
// which is the paper's point.
package gluon

import (
	"sync/atomic"

	"kimbap/internal/comm"
	"kimbap/internal/graph"
	"kimbap/internal/par"
	"kimbap/internal/runtime"
)

// Stats reports a CC-LP run.
type Stats struct {
	Rounds int
}

// CCLP computes connected components by min-label propagation on the
// given cluster configuration and returns the global labels.
func CCLP(g *graph.Graph, ccfg runtime.Config) ([]graph.NodeID, Stats, error) {
	cluster, err := runtime.NewCluster(g, ccfg)
	if err != nil {
		return nil, Stats{}, err
	}
	defer cluster.Close()
	out := make([]graph.NodeID, g.NumNodes())
	rounds := make([]int, ccfg.NumHosts)
	cluster.Run(func(h *runtime.Host) {
		rounds[h.Rank] = ccLP(h, out)
	})
	return out, Stats{Rounds: rounds[0]}, nil
}

func ccLP(h *runtime.Host, out []graph.NodeID) int {
	hp := h.HP
	local := hp.Local
	n := hp.NumLocal()

	// Proxy labels, updated in place with atomics during compute — the
	// Gluon execution model (no thread-local maps, no requests).
	label := make([]atomic.Uint32, n)
	dirty := par.NewBitset(n)
	for l := 0; l < n; l++ {
		label[l].Store(uint32(hp.GlobalID(graph.NodeID(l))))
	}

	atomicMin := func(l graph.NodeID, v uint32) bool {
		for {
			old := label[l].Load()
			if v >= old {
				return false
			}
			if label[l].CompareAndSwap(old, v) {
				return true
			}
		}
	}

	rounds := 0
	for {
		rounds++
		changed := false

		h.TimeCompute(func() {
			var anyChanged atomic.Bool
			h.ParForNodes(func(_ int, src graph.NodeID) {
				v := label[src].Load()
				lo, hi := local.EdgeRange(src)
				for e := lo; e < hi; e++ {
					dst := local.Dst(e)
					if atomicMin(dst, v) {
						dirty.Set(int(dst))
						anyChanged.Store(true)
					}
				}
			})
			changed = anyChanged.Load()
		})

		// Reduce: dirty mirror values go to their masters (positional
		// bitmask over the precomputed exchange lists).
		h.TimeComm(func() {
			numHosts := hp.NumHosts()
			out := make([][]byte, numHosts)
			for o := 0; o < numHosts; o++ {
				if o == h.Rank {
					continue
				}
				list := hp.MirrorsByOwner[o]
				mask := make([]byte, (len(list)+7)/8)
				var vals []byte
				for i, l := range list {
					if dirty.Test(int(l)) {
						mask[i/8] |= 1 << (uint(i) % 8)
						vals = comm.AppendUint32(vals, label[l].Load())
					}
				}
				out[o] = append(mask, vals...)
			}
			in := comm.Exchange(h.EP, comm.TagReduce, out)
			for o := 0; o < numHosts; o++ {
				if o == h.Rank {
					continue
				}
				list := hp.MasterSendTo[o]
				payload := in[o]
				maskLen := (len(list) + 7) / 8
				mask := payload[:maskLen]
				payload = payload[maskLen:]
				for i, l := range list {
					if mask[i/8]&(1<<(uint(i)%8)) != 0 {
						var v uint32
						v, payload = comm.ReadUint32(payload)
						if atomicMin(l, v) {
							dirty.Set(int(l))
							changed = true
						}
					}
				}
			}

			// Broadcast: dirty master values back to all mirrors.
			out = make([][]byte, numHosts)
			for o := 0; o < numHosts; o++ {
				if o == h.Rank {
					continue
				}
				list := hp.MasterSendTo[o]
				mask := make([]byte, (len(list)+7)/8)
				var vals []byte
				for i, l := range list {
					if dirty.Test(int(l)) {
						mask[i/8] |= 1 << (uint(i) % 8)
						vals = comm.AppendUint32(vals, label[l].Load())
					}
				}
				out[o] = append(mask, vals...)
			}
			in = comm.Exchange(h.EP, comm.TagBroadcast, out)
			for o := 0; o < numHosts; o++ {
				if o == h.Rank {
					continue
				}
				list := hp.MirrorsByOwner[o]
				payload := in[o]
				maskLen := (len(list) + 7) / 8
				mask := payload[:maskLen]
				payload = payload[maskLen:]
				for i, l := range list {
					if mask[i/8]&(1<<(uint(i)%8)) != 0 {
						var v uint32
						v, payload = comm.ReadUint32(payload)
						if atomicMin(l, v) {
							changed = true
						}
					}
				}
			}
			dirty.Clear()
		})

		if !comm.AllReduceBool(h.EP, changed) {
			break
		}
	}

	lo, hi := hp.MasterRangeGlobal()
	for g := lo; g < hi; g++ {
		l, _ := hp.LocalID(g)
		out[g] = graph.NodeID(label[l].Load())
	}
	return rounds
}
