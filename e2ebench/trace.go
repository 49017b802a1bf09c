package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Parent is 0 for a top-level
// span; every span of one run carries the run's id.
type span struct {
	Run    string        `json:"run"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps a run's spans in memory until write. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string, seed int64) *tracer {
	t0 := time.Now()
	return &tracer{run: fmt.Sprintf("%s-%d-%d", workload, seed, t0.UnixNano()), t0: t0}
}

// begin opens a span under parent and returns its id (0 when disabled).
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Run: t.run, ID: id, Parent: parent, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span named name under parent.
func (t *tracer) do(parent int, name string, fn func() error) error {
	id := t.begin(parent, name)
	defer t.end(id)
	return fn()
}

// closed returns a copy of the finished spans.
func (t *tracer) closed() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the duration of every finished span named name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.closed() {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// medianOf returns the median duration of the spans named name, converted
// by unit; 0 when there are none.
func (t *tracer) medianOf(name string, unit func(time.Duration) float64) float64 {
	ds := t.durations(name)
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = unit(d)
	}
	return median(xs)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// coverage returns, over every span named parentName, the median share of
// its wall time that its children cover.
func (t *tracer) coverage(parentName string) float64 {
	spans := t.closed()
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	var shares []float64
	for _, s := range spans {
		if s.Name == parentName && s.dur() > 0 {
			shares = append(shares, float64(covered(s, children[s.ID]))/float64(s.dur()))
		}
	}
	return median(shares)
}

// write stores every span, with its self time, as JSON lines under dir.
func (t *tracer) write(dir string) (string, error) {
	if t == nil {
		return "", nil
	}
	spans := t.closed()
	self := selfTimes(spans)
	path := filepath.Join(dir, "trace-"+t.run+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := struct {
			span
			SelfNs time.Duration `json:"self_ns"`
		}{s, self[s.ID]}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
