package main

import (
	"time"

	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/simnuma"
	"repro/xomp"
)

// schedule is the seeded arrival schedule of one run: traces of the
// named scenario from the repository's seeded corpus (internal/scenario),
// joined end to end until they cover the run. Trace k is generated from
// seed<<32+k and starts where trace k-1's last arrival was; a
// single-stream scenario's arrivals are exponential gaps counted from
// zero, so the joined schedule is one Poisson process at the scenario's
// own rate. speed compresses time as replay.Options.Speed does: arrivals
// come speed times faster, job sizes stay as generated. Traces are
// generated as the run reaches them, so the schedule's memory does not
// grow with the run and the peak RSS reported stays the program's.
type schedule struct {
	name  string
	seed  int64
	speed float64
	end   int64 // arrivals at or past this offset (ns) are dropped
	n     int   // arrivals in the whole schedule

	k    uint64            // next trace to generate
	base int64             // scenario time the next trace starts at
	cur  []replay.JobEvent // rest of the trace in progress, At in run time
	done bool              // no trace after cur
}

// newSchedule builds the schedule covering d and counts its arrivals.
func newSchedule(name string, seed int64, d time.Duration, speed float64) (*schedule, error) {
	s := &schedule{name: name, seed: seed, speed: speed, end: int64(d)}
	if _, err := scenario.Generate(name, 0); err != nil {
		return nil, err
	}
	count := *s
	for ; count.peek() != nil; count.pop() {
		s.n++
	}
	return s, nil
}

// fixedSchedule is a schedule of the given arrivals only.
func fixedSchedule(evs []replay.JobEvent) *schedule {
	return &schedule{n: len(evs), cur: evs, done: true}
}

// peek returns the next arrival, or nil once the schedule is done.
func (s *schedule) peek() *replay.JobEvent {
	for len(s.cur) == 0 && !s.done {
		// Cannot fail: newSchedule generated this scenario already.
		tr, _ := scenario.Generate(s.name, uint64(s.seed)<<32+s.k)
		s.k++
		last := s.base
		for i := range tr.Jobs {
			ev := &tr.Jobs[i]
			last = s.base + ev.At
			ev.At = int64(float64(last) / s.speed)
		}
		s.base = last
		s.cur = tr.Jobs
		// Arrivals past the end are dropped, and the schedule ends here.
		for len(s.cur) > 0 && s.cur[len(s.cur)-1].At >= s.end {
			s.cur, s.done = s.cur[:len(s.cur)-1], true
		}
		s.done = s.done || len(tr.Jobs) == 0
	}
	if len(s.cur) == 0 {
		return nil
	}
	return &s.cur[0]
}

// pop drops the arrival peek returned.
func (s *schedule) pop() { s.cur = s.cur[1:] }

// warmTraffic is the first n events of the named scenario at fixed
// seeds, all due at once: set-up sends them closed loop, so its time is
// the program's and not the arrival schedule's.
func warmTraffic(name string, n int) ([]replay.JobEvent, error) {
	var evs []replay.JobEvent
	for k := uint64(0); len(evs) < n; k++ {
		tr, err := scenario.Generate(name, k)
		if err != nil {
			return nil, err
		}
		evs = append(evs, tr.Jobs...)
	}
	evs = evs[:n]
	for i := range evs {
		evs[i].At = 0
	}
	return evs, nil
}

// spinBody is the job body the replayer (internal/replay) and the
// jobserve server give a synthetic job of size units: one subtask per
// started 8192 units, at most 8, each spinning its share.
func spinBody(size int) xomp.TaskFunc {
	fan := min(1+size/8192, 8)
	chunk := size / fan
	return func(w *xomp.Worker) {
		for t := 0; t < fan; t++ {
			w.Spawn(func(*xomp.Worker) { simnuma.Spin(chunk) })
		}
		w.TaskWait()
	}
}
