package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
	"repro/xomp"
)

const (
	// poolSubmitters closed-loop submitters each send poolBatch tiny jobs
	// per SubmitBatchCtx call.
	poolSubmitters = 2
	poolBatch      = 64
	// poolWarmBatches per submitter fill the frame pools and intake rings
	// before timing.
	poolWarmBatches = 500
	// poolTraceEvery: the traced run records the spans of one batch in
	// this many, so a million-job run keeps its spans in tens of MB.
	poolTraceEvery = 16
)

// poolBench is the in-process closed loop: admission, the intake rings,
// dispatch, and job-frame recycling at their ceiling while the task
// scheduler does almost nothing. It keeps Wait and Release on every job —
// the path the known frame-recycling defect lives on (see README.md).
type poolBench struct {
	pool *xomp.ShardedPool
	born time.Time
	ran  atomic.Int64 // job bodies executed
}

// shardedPinned is the 2 shards × 1 worker pool the pool and wire
// workloads share: one shard per zone of the pinned topology.
func shardedPinned() (*xomp.ShardedPool, error) {
	return xomp.NewShardedPool(xomp.ShardConfig{Team: pinnedConfig()})
}

func setupPool() (bench, error) {
	p, err := shardedPinned()
	if err != nil {
		return nil, err
	}
	b := &poolBench{pool: p, born: time.Now()}
	warm := newPhase(0, 0, false)
	watch(&warm.led)
	defer watch(nil)
	b.loop(warm, func(_ time.Duration, batches int) bool { return batches < poolWarmBatches })
	if warm.led.failed() != 0 {
		p.Close()
		return nil, fmt.Errorf("pool warm-up: %d of %d jobs failed", warm.led.failed(), warm.led.attempted.Load())
	}
	return b, nil
}

func (b *poolBench) close() { b.pool.Close() }

// submitterLog is what one submitter records; merged after the run.
type submitterLog struct {
	lat, call, queue, run, wait stats.Histogram
}

// loop runs the closed loop on poolSubmitters goroutines until more
// returns false (given the time since start and the submitter's batches
// so far) and returns the merged per-submitter records.
func (b *poolBench) loop(ph *phase, more func(elapsed time.Duration, batches int) bool) []submitterLog {
	logs := make([]submitterLog, poolSubmitters)
	body := func(*xomp.Worker) { b.ran.Add(1) }
	ctx := context.Background()
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < poolSubmitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			lg := &logs[s]
			items := make([]xomp.BatchItem, poolBatch)
			for i := range items {
				items[i] = xomp.BatchItem{Fn: body}
			}
			jobs := make([]*xomp.Job, 0, poolBatch)
			for n := 0; more(time.Since(start), n); n++ {
				tr := ph.tr
				if n%poolTraceEvery != 0 {
					tr = nil
				}
				opBase := int64(s)<<40 | int64(n)*poolBatch
				ph.led.attempted.Add(poolBatch)
				t0 := time.Now()
				res, err := b.pool.SubmitBatchCtx(ctx, items)
				t1 := time.Now()
				lg.call.Record(int64(t1.Sub(t0)))
				if err != nil {
					ph.led.refused.Add(poolBatch)
					tick()
					continue
				}
				jobs = jobs[:0]
				for _, r := range res {
					if r.Err != nil {
						ph.led.refused.Add(1)
						tick()
						continue
					}
					jobs = append(jobs, r.Job)
				}
				for i, j := range jobs {
					w0 := time.Now()
					err := j.Wait()
					w1 := time.Now()
					q, rt := j.QueueDelay(), j.RunTime()
					j.Release()
					if err != nil {
						ph.led.panicked.Add(1)
					} else {
						ph.led.completed.Add(1)
					}
					tick()
					lg.lat.Record(int64(w1.Sub(t0)))
					lg.wait.Record(int64(w1.Sub(w0)))
					lg.queue.Record(int64(q))
					lg.run.Record(int64(rt))
					if tr != nil {
						op := opBase + int64(i)
						root := tr.add("op", op, -1, t0, w1)
						tr.add("admit", op, root, t0, t1)
						tr.add("wait", op, root, w0, w1)
						tr.addChildren(op, root, t0, q, rt)
					}
				}
			}
		}(s)
	}
	wg.Wait()
	return logs
}

func (b *poolBench) measure(ph *phase) error {
	stats0 := b.pool.Stats()
	ran0 := b.ran.Load()
	var smp *sampler
	if ph.tr != nil {
		smp = startSampler(b.pool)
	}
	d := time.Duration(ph.seconds * float64(time.Second))
	u0 := readUsage()
	t0 := time.Now()
	logs := b.loop(ph, func(el time.Duration, _ int) bool { return el < d })
	ph.window = time.Since(t0)
	ph.use = readUsage().since(u0)
	if smp != nil {
		smp.stop(ph.layer)
	}
	stats1 := b.pool.Stats()
	if err := b.pool.Close(); err != nil {
		return err
	}
	var all submitterLog
	for i := range logs {
		lg := &logs[i]
		ph.lat.Merge(&lg.lat)
		all.call.Merge(&lg.call)
		all.queue.Merge(&lg.queue)
		all.run.Merge(&lg.run)
		all.wait.Merge(&lg.wait)
	}
	// Every admitted job's body must have run exactly once.
	admitted := ph.led.attempted.Load() - ph.led.refused.Load()
	if ran := b.ran.Load() - ran0; ran != admitted {
		fmt.Printf("check: %d job bodies ran, %d jobs admitted\n", ran, admitted)
		ph.led.violations.Add(1)
	}
	if ph.tr == nil {
		return nil
	}
	L := ph.layer
	call := distOf(&all.call, time.Microsecond)
	L["admit.call_us_p50"], L["admit.call_us_p99"] = call.P50, call.Tail
	L["admit.items_per_call"] = poolBatch
	jobLayer(L, &all.queue, &all.run)
	L["job.wait_us_p50"] = distOf(&all.wait, time.Microsecond).P50
	shardLayer(L, stats0, stats1)
	teamLayer(L, b.pool, time.Since(b.born))
	memLayer(ph)
	return nil
}

// jobLayer adds the job-service queue and run time percentiles.
func jobLayer(L map[string]float64, queue, run *stats.Histogram) {
	q, r := distOf(queue, time.Microsecond), distOf(run, time.Microsecond)
	L["job.queue_us_p50"], L["job.queue_us_p99"] = q.P50, q.Tail
	L["job.run_us_p50"], L["job.run_us_p99"] = r.P50, r.Tail
}
