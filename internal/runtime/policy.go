package runtime

// The adaptive policy engine: per round, each host chooses between the BSP
// compute path and an asynchronous drain, and retunes the frontier's
// dense/sparse representation threshold, from telemetry the runtime
// already produces (active fraction, local-target share, CAS-retry
// counts). Decisions are host-local and safe to diverge across hosts:
// algorithms issue the same collective sequence per round in either mode,
// so one host draining asynchronously while another runs BSP still meets
// at the same reduce-sync.

// ExecMode selects how one round's compute phase executes.
type ExecMode uint8

const (
	// ModeBSP is the classic path: iterate the frontier, buffer reduces
	// thread-locally, apply at the next reduce-sync.
	ModeBSP ExecMode = iota
	// ModeAsync drains the frontier with the priority scheduler and CAS
	// in-place applies.
	ModeAsync
)

func (m ExecMode) String() string {
	if m == ModeAsync {
		return "async"
	}
	return "bsp"
}

// Direction selects how a dense-capable round traverses edges.
type Direction uint8

const (
	// DirPush scatters along out-edges: active sources Reduce into
	// arbitrary targets, buffered thread-locally and applied at the next
	// ReduceSync.
	DirPush Direction = iota
	// DirPull iterates masters and scans in-neighbors serially per vertex,
	// combining into the vertex's own master slot with plain stores — no
	// atomics, no thread-local maps, and no ReduceSync for the round.
	DirPull
)

func (d Direction) String() string {
	if d == DirPull {
		return "pull"
	}
	return "push"
}

// RoundTelemetry is one completed round's signal, fed to Adaptive.Observe.
type RoundTelemetry struct {
	Active       int // frontier count entering the round
	FrontierSize int // vertex-space size of the frontier
	Mode         ExecMode
	CASApplied   int64 // in-place applies during the round's drains
	CASRetries   int64 // CAS retry loops (contention signal)
}

const (
	// asyncScoreFloor is the local share at or above which an observed
	// controller keeps running async: a high share means the drain's
	// in-place applies reach most targets instead of buffering for
	// mirrors' owners.
	asyncScoreFloor = 0.75
	// casRetryCeiling is the retries-per-apply EMA above which contention
	// makes buffered BSP reduces cheaper than CAS loops.
	casRetryCeiling = 0.5
	// asyncProbeShare is the local share at which an unobserved controller
	// probes async: below it mirrors dominate the targets.
	asyncProbeShare = 0.5
	// policyEMAWeight is the weight of the newest observation.
	policyEMAWeight = 0.5
	// divisorFlapThreshold doubles the dense divisor after this many
	// net dense<->sparse representation flips.
	divisorFlapThreshold = 3
	maxDenseDivisor      = 64

	// dirEdgeDivisor switches a round to pull when the frontier's active
	// in-edge workload reaches 1/dirEdgeDivisor of all edges — the
	// Beamer-style bottom-up trigger: at that density the push side would
	// touch a comparable edge volume through contended hub reduces, while
	// pull scans it with plain stores and skips the reduce collective.
	dirEdgeDivisor = 20
	// dirDenseDivisor keeps an already-pull phase in pull while the active
	// master fraction stays above 1/dirDenseDivisor (hysteresis: the edge
	// trigger decays faster than the win does on a shrinking but still
	// broad frontier).
	dirDenseDivisor = 20
)

// Adaptive is a per-host, per-phase policy controller. Create one at phase
// start (NewAdaptive), ask NextMode before each round, and feed the
// round's telemetry to Observe after it.
type Adaptive struct {
	h          *Host
	localShare float64 // masters / local proxies: the fraction of targets CAS can reach
	retryEMA   float64 // CAS retries per apply, observed
	observed   bool    // at least one async round measured
	divisor    int     // current dense/sparse divisor this controller set
	prevDense  bool
	prevValid  bool
	flips      int
	dir        Direction // last direction NextDirection returned
}

// NewAdaptive creates a controller for one algorithm phase on h.
func NewAdaptive(h *Host) *Adaptive {
	nl := h.HP.NumLocal()
	if nl < 1 {
		nl = 1
	}
	div, _ := h.FrontierThresholds()
	return &Adaptive{
		h:          h,
		localShare: float64(h.HP.NumMasters) / float64(nl),
		divisor:    div,
	}
}

// NextMode decides the coming round's execution mode given the frontier
// count entering it.
func (a *Adaptive) NextMode(active int) ExecMode {
	if active == 0 {
		return ModeBSP
	}
	if a.observed && a.retryEMA > casRetryCeiling {
		return ModeBSP
	}
	if !a.observed {
		// No async round measured yet: probe once when enough targets are
		// local for in-place applies to plausibly pay off (always on one
		// host).
		if a.localShare >= asyncProbeShare {
			return ModeAsync
		}
		return ModeBSP
	}
	if a.localShare >= asyncScoreFloor {
		return ModeAsync
	}
	return ModeBSP
}

// Observe feeds one completed round's telemetry: updates the CAS-retry
// EMA after an async round and retunes the host's dense/sparse threshold when the
// representation is flapping at the boundary.
func (a *Adaptive) Observe(t RoundTelemetry) {
	if t.Mode == ModeAsync {
		if t.CASApplied > 0 {
			retry := float64(t.CASRetries) / float64(t.CASApplied)
			a.retryEMA = a.retryEMA*(1-policyEMAWeight) + retry*policyEMAWeight
		}
		a.observed = true
	}
	if t.FrontierSize > 0 && t.Active > 0 {
		dense := t.Active*a.divisor >= t.FrontierSize
		if a.prevValid {
			if dense != a.prevDense {
				a.flips++
			} else if a.flips > 0 {
				a.flips--
			}
		}
		a.prevDense, a.prevValid = dense, true
		if a.flips >= divisorFlapThreshold && a.divisor < maxDenseDivisor {
			// A frontier hovering at the switch point pays compaction one
			// round and scan the next; lowering the boundary (bigger
			// divisor) parks it solidly in the dense regime.
			a.divisor *= 2
			a.h.SetFrontierThresholds(a.divisor, 0)
			a.flips = 0
			a.prevValid = false
		}
	}
}

// Divisor returns the dense/sparse divisor the controller currently has
// in effect (telemetry/testing).
func (a *Adaptive) Divisor() int { return a.divisor }

// NextDirection decides the coming dense-capable round's traversal
// direction from globally-reduced telemetry: the number of active
// masters, the total master count, the summed in-degree of the active
// masters, and the total edge count.
//
// Unlike NextMode, direction is NOT a host-local choice: a pull round
// issues a different collective sequence (no ReduceSync), so every host
// must decide identically. Callers allreduce the telemetry first (the
// algorithms' round policy uses CountReducer.Sync); the rule itself is a pure
// deterministic function of those global inputs plus the controller's
// own previous decisions, which are in lockstep across hosts for the
// same reason.
func (a *Adaptive) NextDirection(activeMasters, totalMasters, activeInEdges, totalEdges int64) Direction {
	if activeMasters == 0 || totalMasters == 0 || totalEdges == 0 {
		a.dir = DirPush
		return a.dir
	}
	heavy := activeInEdges*dirEdgeDivisor >= totalEdges
	dense := activeMasters*dirDenseDivisor >= totalMasters
	if heavy || (a.dir == DirPull && dense) {
		a.dir = DirPull
	} else {
		a.dir = DirPush
	}
	return a.dir
}
