package cautiousop

import (
	"kimbap/internal/graph"
	"kimbap/internal/npm"
	"kimbap/internal/runtime"
)

// The round driver's phase bodies are operators, written in place or
// bound to a local name, and so is a closure handed to Loop.ParFor.
func driverPhases(h *runtime.Host, m npm.Map[uint32]) {
	named := func(tid int, n graph.NodeID) {
		m.Reduce(tid, n, 1)
		_ = m.Read(n) // want `Read of "m" follows a Reduce`
	}
	loop := runtime.Loop{Host: h, Quiesce: m, Phases: []runtime.Phase{
		{Body: named, Reduce: []runtime.SyncMap{m}},
		{Visit: runtime.Masters, Body: func(tid int, n graph.NodeID) {
			m.Reduce(tid, n, 2)
			_ = m.Read(n) // want `Read of "m" follows a Reduce`
		}},
	}}
	loop.ParFor(runtime.Active, func(tid int, n graph.NodeID) {
		m.Reduce(tid, n, 3)
		_ = m.Read(n) // want `Read of "m" follows a Reduce`
	})
	loop.Run()
}

// A view's Read after its Reduce in a phase body (the local-view form).
func driverPhaseView(h *runtime.Host, m npm.Map[uint32]) {
	lv := npm.Local(m)
	loop := runtime.Loop{Host: h, Quiesce: m, Phases: []runtime.Phase{{Body: func(tid int, n graph.NodeID) {
		if v := lv.Value(n); v > 0 {
			lv.Reduce(tid, n, v-1)
		}
		_ = lv.Value(n) // want `Read of "m" follows a Reduce`
	}}}}
	loop.Run()
}
