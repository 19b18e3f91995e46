package main

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a tail read off fewer samples is one outlier, not a
// percentile.
const minBeyond = 10

// tailQuantile returns the quantile to report as the tail of n samples:
// want when at least minBeyond samples lie beyond it, otherwise the
// highest quantile that still leaves minBeyond samples beyond, and never
// below the median.
func tailQuantile(n int, want float64) float64 {
	if n <= 0 {
		return 0.5
	}
	if float64(n)*(1-want) >= minBeyond-1e-9 {
		return want
	}
	q := 1 - float64(minBeyond)/float64(n)
	return math.Max(q, 0.5)
}

// dist summarizes one timing: its sample count, median, 90th percentile,
// and tail (the 99th percentile under the minBeyond rule, TailQ naming
// the quantile used).
type dist struct {
	N     int
	P50   float64
	P90   float64
	Tail  float64
	TailQ float64
}

// ms and us convert a duration to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// dueLatency is an open-loop op's latency: from the time it was due to be
// sent to the time its result arrived. Measuring from the send time
// instead would hide every delay the generator itself adds — a generator
// that falls behind would make the system look faster, not slower.
func dueLatency(due, done time.Time) time.Duration { return done.Sub(due) }

// ratio returns a/b, or 0 when b is 0 (a layer the workload never used).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ledger counts the ops of one measured phase. Every op the benchmark
// attempts ends in exactly one of: completed (finished with a correct
// result), refused by admission, panicked, bad output, or unfinished
// (lost, or still in flight when the phase ended or the watchdog fired).
// Only completed ops count as successes.
type ledger struct {
	attempted atomic.Int64
	completed atomic.Int64
	refused   atomic.Int64
	panicked  atomic.Int64
	bad       atomic.Int64
	// violations counts failed output checks that belong to no single
	// op: duplicate or unknown answers, job bodies run a wrong number of
	// times. Any violation makes the run incorrect.
	violations atomic.Int64
}

// failed is every attempted op that did not complete correctly —
// including the unfinished ones no other counter saw.
func (l *ledger) failed() int64 { return l.attempted.Load() - l.completed.Load() }

// unfinished is the attempted ops with no recorded outcome at all.
func (l *ledger) unfinished() int64 {
	return l.failed() - l.refused.Load() - l.panicked.Load() - l.bad.Load()
}

// quantileNS returns the nearest-rank q-quantile of h in ns: the
// smallest sample with at least a q share of the samples at or below it,
// interpolated by rank inside its bucket. Histogram.Percentile returns a
// bucket's lower bound instead, so its figures move in 3% steps and a
// timing steadier than that reads the same on every run.
func quantileNS(h *stats.Histogram, q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q*float64(n) - 1e-9))
	rank = min(max(rank, 1), n)
	var seen uint64
	v := float64(h.Max())
	h.ForEachBucket(func(b int, c uint64) {
		if seen < rank && seen+c >= rank {
			// The exact extremes bound the first and last buckets.
			lo := float64(max(stats.BucketValue(b), h.Min()))
			hi := float64(min(stats.BucketValue(b+1), h.Max()+1))
			v = lo + (hi-lo)*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += c
	})
	return v
}

// distOf summarizes h in the given unit (time.Millisecond, time.Microsecond).
func distOf(h *stats.Histogram, unit time.Duration) dist {
	n := int(h.Count())
	d := dist{N: n, TailQ: tailQuantile(n, 0.99)}
	u := float64(unit)
	d.P50, d.P90, d.Tail = quantileNS(h, 0.5)/u, quantileNS(h, 0.9)/u, quantileNS(h, d.TailQ)/u
	return d
}
