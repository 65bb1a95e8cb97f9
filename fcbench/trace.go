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

// span is one timed call into a layer, recorded by the benchmark around
// a public call. Req groups the spans of one request (a grid round, a
// served query, an ingest cycle).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its id (ids start at 1; parent 0 is a
// root).
func (t *tracer) add(name string, parent, req int64, start, end time.Time) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// setEnd closes a span added before its end was known.
func (t *tracer) setEnd(id int64, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
}

// selfTimes returns each span's duration minus the part of it its
// children cover, keyed by span id.
func (t *tracer) selfTimes() map[int64]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(t.spans))
	for _, s := range t.spans {
		self[s.ID] = s.End - s.Start - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur, end := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > end {
			if end > cur {
				total += end - cur
			}
			cur, end = s, e
		} else if e > end {
			end = e
		}
	}
	if end > cur {
		total += end - cur
	}
	return total
}

// selfByName sums self time per span name.
func (t *tracer) selfByName() map[string]time.Duration {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		out[s.Name] += time.Duration(self[s.ID])
	}
	return out
}

// selfPerReq sums, per request, the self time of the spans with the
// given names: the blocking steps of one end-to-end figure.
func (t *tracer) selfPerReq(names ...string) []float64 {
	self := t.selfTimes()
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	per := make(map[int64]int64)
	for _, s := range t.spans {
		if want[s.Name] {
			per[s.Req] += self[s.ID]
		}
	}
	out := make([]float64, 0, len(per))
	for _, v := range per {
		out = append(out, float64(v))
	}
	return out
}

// printSelfTimes prints total self time and span count per layer.
func (t *tracer) printSelfTimes() {
	self := t.selfByName()
	counts := make(map[string]int)
	t.mu.Lock()
	for _, s := range t.spans {
		counts[s.Name]++
	}
	t.mu.Unlock()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# self %-28s total_ms %10.3f spans %7d mean_us %10.3f\n",
			n, ms(self[n]), counts[n], us(self[n])/float64(counts[n]))
	}
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
