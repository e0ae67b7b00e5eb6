package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval recorded by the harness: at the boundary
// of each end-to-end call and around every layer call of the replay.
// Parent is the index of the enclosing span, -1 for a root. Spans are
// recorded from the harness's own files only; the engine is untouched.
type span struct {
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how the untraced pass runs the same code.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

const noSpan = -1

// start opens a span and returns its id for end and for children.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, StartNS: now, Parent: parent, Workload: t.workload})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// selfTimes sums, per span name, duration minus the time covered by
// direct children.
func selfTimes(spans []span) map[string]time.Duration {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range spans {
		self[s.Name] += time.Duration(s.EndNS - s.StartNS - child[i])
	}
	return self
}

// write stores the spans as dir/trace-<workload>.json.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
