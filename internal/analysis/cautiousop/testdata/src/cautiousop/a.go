// Golden tests for the cautiousop analyzer: operator closures passed to
// the runtime's parallel apply entry points must not Read a property map
// after Reducing to it (§3.2 cautious operators).
package cautiousop

type host struct{}

func (h *host) ParForNodes(n int, op func(u int)) {
	for u := 0; u < n; u++ {
		op(u)
	}
}

func (h *host) ParFor(lo, hi int, op func(i int)) {
	for i := lo; i < hi; i++ {
		op(i)
	}
}

type propMap struct{ v []float64 }

func (m *propMap) Read(u int) float64      { return m.v[u] }
func (m *propMap) Reduce(u int, x float64) { m.v[u] += x }

func nonCautious(h *host, rank, next *propMap, n int) {
	h.ParForNodes(n, func(u int) {
		next.Reduce(u, rank.Read(u))
		_ = next.Read(u) // want `operator is not cautious: Read of "next" follows a Reduce to it at line \d+`
	})
}

// Reads before reduces — the cautious form — are fine.
func cautious(h *host, rank, next *propMap, n int) {
	h.ParForNodes(n, func(u int) {
		x := rank.Read(u)
		next.Reduce(u, x)
	})
}

// Distinct maps do not interfere.
func distinctMaps(h *host, rank, next *propMap, n int) {
	h.ParForNodes(n, func(u int) {
		next.Reduce(u, 1)
		_ = rank.Read(u)
	})
}

// Argument evaluation precedes the call: a Read nested in the Reduce's
// own arguments is cautious.
func sameStatement(h *host, m *propMap, n int) {
	h.ParForNodes(n, func(u int) {
		m.Reduce(u, m.Read(u))
	})
}

// Sibling branches of an if/else do not see each other's reduces, but
// code after the branch sees both.
func branches(h *host, m *propMap, n int) {
	h.ParForNodes(n, func(u int) {
		if u%2 == 0 {
			m.Reduce(u, 1)
		} else {
			_ = m.Read(u)
		}
		_ = m.Read(u) // want `Read of "m" follows a Reduce`
	})
}

// The loop back edge separates applications (as in the IR validator), so
// a top-of-body Read does not follow the previous iteration's Reduce —
// but code after the loop does.
func loopBackEdge(h *host, m *propMap, n int) {
	h.ParForNodes(n, func(u int) {
		for i := 0; i < 3; i++ {
			_ = m.Read(u)
			m.Reduce(u, 1)
		}
		_ = m.Read(u) // want `Read of "m" follows a Reduce`
	})
}

func forwardInParFor(h *host, m *propMap, n int) {
	h.ParFor(0, n, func(i int) {
		m.Reduce(i, 1)
		_ = m.Read(i) // want `Read of "m" follows a Reduce`
	})
}

// Outside an operator the rule does not apply.
func notAnOperator(m *propMap) float64 {
	m.Reduce(0, 1)
	return m.Read(0)
}

// A nested literal is a separate (non-operator) function.
func nestedLiteral(h *host, m *propMap, n int) {
	h.ParForNodes(n, func(u int) {
		m.Reduce(u, 1)
		f := func() float64 { return m.Read(u) }
		_ = f
	})
}

// A body bound to a local name is followed to its literal (MSF's
// propBody shape).
func namedBody(h *host, cand *propMap, n int) {
	body := func(u int) {
		cand.Reduce(u, 1)
		if cand.Read(u) == 1 { // want `Read of "cand" follows a Reduce`
			return
		}
	}
	h.ParForNodes(n, body)
}
