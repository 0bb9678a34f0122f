package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// tracer records the traced run's spans in memory and writes them at exit
// as Chrome trace-event JSON (chrome://tracing, Perfetto). Spans come from
// the benchmark's own calls into each layer; nothing is traced inside the
// program. Spans nest by time on one track: a job span holds graph.load,
// partition, one span per algorithm call, and verify. A nil *tracer
// records nothing.
type tracer struct {
	origin time.Time
	events []traceEvent
}

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // µs since the run started
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.origin).Nanoseconds()) / 1e3 }

// span records a complete span with its counters as args.
func (t *tracer) span(name string, start, end time.Time, args map[string]any) {
	if t == nil {
		return
	}
	t.events = append(t.events, traceEvent{Name: name, Ph: "X", Ts: t.us(start),
		Dur: t.us(end) - t.us(start), Pid: 1, Tid: 1, Args: args})
}

// rounds records a per-round counter track inside an algorithm span: one
// sample per BSP round, spaced evenly across the span. The library logs
// rounds without timestamps, so a sample's position is its round index,
// not the time the round ran.
func (t *tracer) rounds(name string, start, end time.Time, series map[string][]int64) {
	if t == nil {
		return
	}
	n := 0
	for _, s := range series {
		n = max(n, len(s))
	}
	step := (t.us(end) - t.us(start)) / float64(max(n, 1))
	for i := 0; i < n; i++ {
		args := make(map[string]any, len(series))
		for k, s := range series {
			if i < len(s) {
				args[k] = s[i]
			}
		}
		t.events = append(t.events, traceEvent{Name: name, Ph: "C",
			Ts: t.us(start) + float64(i)*step, Pid: 1, Tid: 1, Args: args})
	}
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := json.NewEncoder(f).Encode(map[string]any{
		"traceEvents":     t.events,
		"displayTimeUnit": "ms",
	}); err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}
