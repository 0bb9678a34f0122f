package runtime

import (
	"time"

	"kimbap/internal/comm"
	"kimbap/internal/graph"
)

// SyncMap is the part of a node-property map the round driver calls.
// Every npm.Map satisfies it; the interface lives here because npm builds
// on this package.
type SyncMap interface {
	Request(n graph.NodeID)
	RequestSync()
	ReduceSync()
	BroadcastSync()
	ResetUpdated()
	IsUpdated() bool
}

// Visit names the local proxies a phase's body runs on.
type Visit uint8

const (
	// Active is the loop's frontier, or every local proxy without one.
	Active Visit = iota
	// ActiveMasters is the masters in the loop's frontier, or every
	// master without one.
	ActiveMasters
	// Masters is every master, frontier or not.
	Masters
)

// Phase is one step of a BSP round: a parallel visit and the syncs that
// publish what it reduced or requested.
type Phase struct {
	// Reads are requested for every local proxy before the phase, one
	// RequestSync each: backends without the partition-aware layout (GAR)
	// cannot serve even active-node reads locally. Callers on GAR
	// backends leave it empty.
	Reads []SyncMap
	// Before, if set, runs after the reads and before the visit, untimed:
	// sequential set-up such as a map reset, a pin or a nested loop.
	// Compute inside it times itself.
	Before func()
	// Visit names the proxies Body runs on.
	Visit Visit
	// Body runs on every proxy Visit names, under the compute timer; nil
	// visits nothing.
	Body func(tid int, n graph.NodeID)
	// Request, Reduce and Broadcast are synced after the visit, in that
	// order.
	Request, Reduce, Broadcast []SyncMap
}

// Loop is the BSP round skeleton of the paper's generated code (§5,
// Figure 8), written once: every round resets Quiesce's update flag,
// runs its phases in order, logs the round, advances the frontier after
// the last sync, and tests quiescence. Set Quiesce, Done or both.
type Loop struct {
	Host *Host
	// Frontier, if set, is what Active and ActiveMasters visit. Run makes
	// the activations made before it the first round's set, and advances
	// after every round, so its syncs' activations form the next one.
	Frontier *Frontier
	Phases   []Phase
	// Quiesce's update flag is reset at every round start; a round that
	// updated none of its masters ends the loop.
	Quiesce SyncMap
	// Done, if set, replaces Quiesce's test: a collective, called after
	// each round, that reports whether the loop has converged.
	Done func() bool
	// MaxRounds caps the rounds; 0 means no cap.
	MaxRounds int
	// Log, if set, records each round; Hook marks them as hook rounds
	// (RoundStats.Hook).
	Log  *RoundLog
	Hook bool
}

// Run runs rounds until the quiescence test passes or MaxRounds rounds
// have run, and returns the rounds run and whether the last one passed
// the test (false: the cap cut the loop off). Collective.
func (l *Loop) Run() (rounds int, converged bool) {
	fr := l.Frontier
	if fr != nil {
		fr.advance()
	}
	for rounds = 1; ; rounds++ {
		if l.Quiesce != nil {
			l.Quiesce.ResetUpdated()
		}
		for i := range l.Phases {
			l.phase(&l.Phases[i])
		}
		if l.Log != nil {
			l.Log.record(l.visited(), l.Hook)
		}
		if fr != nil {
			fr.advance()
		}
		if l.Done != nil {
			converged = l.Done()
		} else {
			converged = !l.Quiesce.IsUpdated()
		}
		if converged || (l.MaxRounds > 0 && rounds >= l.MaxRounds) {
			return rounds, converged
		}
	}
}

func (l *Loop) phase(p *Phase) {
	h := l.Host
	for _, m := range p.Reads {
		h.ParForNodes(func(_ int, n graph.NodeID) { m.Request(h.HP.GlobalID(n)) })
		m.RequestSync()
	}
	if p.Before != nil {
		p.Before()
	}
	if p.Body != nil {
		start := time.Now()
		l.ParFor(p.Visit, p.Body)
		h.Timers.Compute += time.Since(start)
	}
	for _, m := range p.Request {
		m.RequestSync()
	}
	for _, m := range p.Reduce {
		m.ReduceSync()
	}
	for _, m := range p.Broadcast {
		m.BroadcastSync()
	}
}

// ParFor runs fn on the proxies v names in the current round, on the
// host's worker pool.
func (l *Loop) ParFor(v Visit, fn func(tid int, n graph.NodeID)) {
	h, fr := l.Host, l.Frontier
	switch {
	case fr != nil && v == Active:
		h.parForActive(fr, fr.Size(), fn)
	case fr != nil && v == ActiveMasters:
		h.parForActive(fr, h.HP.NumMasters, fn)
	case v == Active:
		h.ParForNodes(fn)
	default:
		h.ParForMasters(fn)
	}
}

// visited is the round's visit count for the log: the frontier's size,
// or every proxy the first phase visits.
func (l *Loop) visited() int {
	if l.Frontier != nil {
		return l.Frontier.Count()
	}
	if len(l.Phases) > 0 && l.Phases[0].Visit == Active {
		return l.Host.HP.NumLocal()
	}
	return l.Host.HP.NumMasters
}

// RoundStats is the per-BSP-round activity log a RoundLog fills, one entry
// per round in execution order: how many local vertices the round
// visited, how many reduce-sync payload bytes this host sent during it,
// and whether it was a hook/propagate round (edge work) as opposed to a
// pointer-jumping shortcut round.
type RoundStats struct {
	Active      []int64
	ReduceBytes []int64
	Hook        []bool
}

// RoundLog appends one RoundStats entry per round, charging each round
// the TagReduce bytes sent since the previous one. One log can serve
// several loops of an algorithm.
type RoundLog struct {
	h    *Host
	out  *RoundStats
	prev int64
}

// NewRoundLog returns a log that appends h's rounds to out.
func NewRoundLog(h *Host, out *RoundStats) *RoundLog {
	return &RoundLog{h: h, out: out, prev: reduceBytesSent(h)}
}

func reduceBytesSent(h *Host) int64 {
	_, b := h.EP.StatsByTag()
	return b[comm.TagReduce]
}

func (r *RoundLog) record(active int, hook bool) {
	now := reduceBytesSent(r.h)
	r.out.Active = append(r.out.Active, int64(active))
	r.out.ReduceBytes = append(r.out.ReduceBytes, now-r.prev)
	r.out.Hook = append(r.out.Hook, hook)
	r.prev = now
}
