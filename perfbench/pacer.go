package main

import (
	"syscall"
	"time"
)

// pacer releases open-loop ops at their due times, offsets from start.
// Go's runtime timers round a sub-millisecond sleep up to a millisecond
// when the process is otherwise idle, which would make a 2000/s
// generator up to 1 ms late on most ops. The pacer blocks its thread in
// nanosleep instead, which wakes within the kernel's timer slack (50 µs
// by default) and burns no CPU while waiting. It never releases an op
// early and never spins: a spinning generator would take CPU from the
// two workers it measures.
type pacer struct {
	start time.Time
	sleep func(time.Duration)
}

func newPacer(start time.Time) *pacer { return &pacer{start: start, sleep: nanosleep} }

func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only wakes early; wait sleeps again
}

// wait blocks until the op due at offset due may be sent and returns its
// due time. A caller that reaches wait after the due time returns at
// once: it is late, and latency measured from the due time shows it.
func (p *pacer) wait(due time.Duration) time.Time {
	at := p.start.Add(due)
	for d := time.Until(at); d > 0; d = time.Until(at) {
		p.sleep(d)
	}
	return at
}
