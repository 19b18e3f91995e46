package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/replay"
	"repro/internal/stats"
)

func TestTailQuantileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{2000, 0.99},
		{1000, 0.99}, // exactly 10 beyond p99
		{999, 1 - 10.0/999},
		{100, 0.9},
		{30, 1 - 10.0/30},
		{15, 0.5}, // fewer than 20 samples: the median is the tail
		{0, 0.5},
	} {
		if got := tailQuantile(tc.n, 0.99); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	// The reported tail leaves exactly minBeyond samples above it.
	for _, n := range []int{50, 300, 999, 1000, 5000} {
		var h stats.Histogram
		for v := n; v >= 1; v-- {
			h.Record(int64(v)) // samples 1..n ns
		}
		d := distOf(&h, time.Nanosecond)
		want := minBeyond
		if n >= 1000 {
			want = n / 100 // p99 itself
		}
		if beyond := n - int(d.Tail); beyond != want {
			t.Errorf("n=%d: %d samples beyond the tail p%v, want %d", n, beyond, 100*d.TailQ, want)
		}
		if got := int(d.P50); got != (n+1)/2 {
			t.Errorf("n=%d: median %v, want %d", n, d.P50, (n+1)/2)
		}
	}
}

// Interpolating inside a bucket keeps a quantile far closer to the exact
// one than the bucket's 1/32 width, where Percentile's lower bound is not.
func TestQuantileNSTracksExact(t *testing.T) {
	var h stats.Histogram
	var xs stats.Sample
	v := 1.0
	for i := 0; i < 20000; i++ {
		v = math.Mod(v*7.31+13, 5e6) // spread over 0..5 ms
		h.Record(int64(v))
		xs.Add(math.Floor(v))
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got, want := quantileNS(&h, q), xs.Percentile(100*q)
		if math.Abs(got-want) > want/500 {
			t.Errorf("q=%v: histogram %v, exact %v", q, got, want)
		}
	}
	d := distOf(&h, time.Millisecond)
	if d.N != 20000 || d.TailQ != 0.99 {
		t.Errorf("dist = %+v", d)
	}
	var empty stats.Histogram
	if d := distOf(&empty, time.Millisecond); d.P50 != 0 || d.Tail != 0 {
		t.Errorf("empty dist = %+v", d)
	}
}

// A generator that falls behind its schedule must make latency worse:
// latency runs from the due time, so time the generator lost counts.
func TestLateGeneratorRaisesLatency(t *testing.T) {
	const over = 3 * time.Millisecond
	start := time.Now()
	p := &pacer{start: start, sleep: func(d time.Duration) { time.Sleep(d + over) }}
	const dueAt = 5 * time.Millisecond
	due := p.wait(dueAt)
	sent := time.Now()
	if !due.Equal(start.Add(dueAt)) {
		t.Fatalf("wait returned %v, want the due time %v", due, start.Add(dueAt))
	}
	late := sent.Sub(due)
	if late < over {
		t.Fatalf("oversleeping pacer sent %v after due, want at least %v", late, over)
	}
	const service = time.Millisecond
	done := sent.Add(service)
	if got := dueLatency(due, done); got != late+service {
		t.Errorf("latency %v, want the lateness plus the service time, %v", got, late+service)
	}
	// An on-time pacer never releases an op early.
	on := newPacer(time.Now())
	if at := on.wait(200 * time.Microsecond); time.Now().Before(at) {
		t.Errorf("pacer released an op before it was due")
	}
}

func TestLedgerCountsEveryFailure(t *testing.T) {
	var l ledger
	l.attempted.Add(100)
	l.completed.Add(90)
	l.refused.Add(3)
	l.panicked.Add(2)
	l.bad.Add(1)
	if got := l.failed(); got != 10 {
		t.Errorf("failed = %d, want 10 (every attempted op that did not complete)", got)
	}
	if got := l.unfinished(); got != 4 {
		t.Errorf("unfinished = %d, want 4 (attempted ops with no outcome)", got)
	}
	// A stalled run: nothing outstanding has an outcome.
	var s ledger
	s.attempted.Add(128)
	s.completed.Add(5)
	if s.failed() != 123 || s.unfinished() != 123 {
		t.Errorf("stalled: failed=%d unfinished=%d, want 123 both", s.failed(), s.unfinished())
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "op", Op: 1, Parent: -1, Start: 0, End: 100},
		{Name: "admit", Op: 1, Parent: 0, Start: 10, End: 40},
		{Name: "queue", Op: 1, Parent: 0, Start: 30, End: 60},   // overlaps admit
		{Name: "run", Op: 1, Parent: 0, Start: 90, End: 120},    // runs past the parent
		{Name: "late", Op: 1, Parent: 0, Start: 15, End: 20},    // covered by admit too
		{Name: "op", Op: 2, Parent: -1, Start: 200, End: 210},   // no children
		{Name: "send", Op: 3, Parent: -1, Start: 300, End: 305}, // linked later
		{Name: "op", Op: 3, Parent: -1, Start: 295, End: 330},
	}
	self := selfTimes(spans)
	// op 1 covers [10,60] and [90,100] by its children: 100 - 60.
	for i, want := range []int64{40, 30, 30, 30, 5, 10, 5, 35} {
		if self[i] != want {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spans[i].Name, self[i], want)
		}
	}
	tr := &tracer{spans: spans}
	tr.linkByOp()
	if tr.spans[6].Parent != 7 {
		t.Fatalf("send not linked to its op root: parent %d", tr.spans[6].Parent)
	}
	if got := selfTimes(tr.spans)[7]; got != 30 {
		t.Errorf("op 3 self = %d after linking, want 30", got)
	}
	by := selfByName(tr.spans)
	if got := by["op"]; math.Abs(got-float64(40+10+30)/3/1e3) > 1e-12 {
		t.Errorf("mean op self = %v µs", got)
	}
}

// The metrics the program prints are exactly the ones BENCHMARK.json
// declares, and every workload it declares exists.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(defs), len(got))
			return
		}
		for i := range defs {
			if defs[i].name != got[i].Name || defs[i].unit != got[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, defs[i].name, defs[i].unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", e2eMetrics, spec.EndToEnd)
	check("per_layer", layerMetrics, spec.PerLayer)
	for _, w := range spec.Workloads {
		if !slices.ContainsFunc(workloads, func(x workload) bool { return x.name == w.Name }) {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

// The schedule joins corpus traces into one seeded arrival stream: the
// same seed gives the same arrivals, in order, inside the run, counted
// up front, at the scenario's rate times speed.
func TestScheduleTilesCorpus(t *testing.T) {
	const d = 2 * time.Second
	drain := func(seed int64, speed float64) []replay.JobEvent {
		s, err := newSchedule("steady", seed, d, speed)
		if err != nil {
			t.Fatal(err)
		}
		var evs []replay.JobEvent
		for ; s.peek() != nil; s.pop() {
			evs = append(evs, *s.peek())
		}
		if len(evs) != s.n {
			t.Fatalf("seed %d: drained %d arrivals, counted %d", seed, len(evs), s.n)
		}
		return evs
	}
	a, b, c := drain(7, 2.5), drain(7, 2.5), drain(8, 2.5)
	if !slices.Equal(a, b) {
		t.Error("same seed, different schedules")
	}
	if slices.Equal(a, c) {
		t.Error("different seeds, same schedule")
	}
	for i, ev := range a {
		if ev.At < 0 || ev.At >= int64(d) || (i > 0 && ev.At < a[i-1].At) {
			t.Fatalf("arrival %d at %v: outside the run or out of order", i, time.Duration(ev.At))
		}
	}
	// steady arrives at 2000 jobs/s; 2.5 times faster over 2 s.
	if rate := float64(len(a)) / d.Seconds(); math.Abs(rate-5000) > 250 {
		t.Errorf("rate %v jobs/s, want about 5000", rate)
	}
	if n := len(drain(7, 1)); math.Abs(float64(n)-4000) > 200 {
		t.Errorf("speed 1: %d arrivals in 2 s, want about 4000", n)
	}
}

func TestSkewTagRoundTrip(t *testing.T) {
	for _, c := range []struct {
		i, tenant int
		at        int64
	}{{0, 0, 0}, {1, 7, 1}, {1<<skewIndexBits - 1, 15, 1<<skewDueBits - 1}, {123456, 3, int64(59 * time.Second)}} {
		i, tenant, at := skewUntag(skewTag(c.i, c.tenant, c.at))
		if i != c.i || tenant != c.tenant || at != c.at {
			t.Errorf("tag(%d, %d, %d) came back as (%d, %d, %d)", c.i, c.tenant, c.at, i, tenant, at)
		}
	}
}
