package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed interval around a call into a layer, or rebuilt from
// a duration the program reports (queue and run time). Spans of one op
// share Op; Parent indexes the causing span in the same tracer, -1 for a
// root.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start"` // ns since the tracer's base
	End    int64  `json:"end"`
}

// tracer keeps a phase's spans in memory until the run ends. A nil
// tracer records nothing, so untraced phases pay one nil check per span.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(base time.Time) *tracer { return &tracer{base: base} }

// add records a finished span and returns its index (or -1 when t is nil).
func (t *tracer) add(name string, op int64, parent int32, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	s := span{Name: name, Op: op, Parent: parent,
		Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	id := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return id
}

// addChildren records queue and run spans rebuilt from the durations the
// program reports for a job: queue from anchor, run right after it. The
// program exports durations, not instants, so anchor is the earliest time
// the job can have entered the queue as seen from outside (the start of
// the call that submitted it).
func (t *tracer) addChildren(op int64, parent int32, anchor time.Time, queue, run time.Duration) {
	if t == nil {
		return
	}
	t.add("queue", op, parent, anchor, anchor.Add(queue))
	t.add("run", op, parent, anchor.Add(queue), anchor.Add(queue+run))
}

// linkByOp parents every orphan span to the "op" root of its op: a
// span recorded on a goroutine that could not yet know its root's index
// (the wire generator sends before the receiver sees the answer).
func (t *tracer) linkByOp() {
	root := map[int64]int32{}
	for i, s := range t.spans {
		if s.Name == "op" {
			root[s.Op] = int32(i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if r, ok := root[s.Op]; ok && s.Parent < 0 && s.Name != "op" {
			s.Parent = r
		}
	}
}

// selfTimes returns, per span, its duration minus the part of its interval
// covered by its children. Overlapping children are counted once, and
// child time outside the parent's interval is not subtracted.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		for _, k := range kids[int32(i)] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		self[i] = (s.End - s.Start) - unionLen(iv)
	}
	return self
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		if !open || x[0] > curB {
			if open {
				total += curB - curA
			}
			curA, curB, open = x[0], x[1], true
			continue
		}
		curB = max(curB, x[1])
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfByName returns the mean self time in microseconds of each span
// name.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	sum := map[string]float64{}
	cnt := map[string]float64{}
	for i, s := range spans {
		sum[s.Name] += float64(self[i]) / 1e3
		cnt[s.Name]++
	}
	for k := range sum {
		sum[k] /= cnt[k]
	}
	return sum
}

// writeSpans writes spans as JSON lines to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
