package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/stats"
	"repro/xomp"
)

const (
	// skewScenario is the corpus preset the skew traffic is tiled from:
	// one batch class, eight tenants with zipf(1.6) popularity, jobs of
	// about 240000 spin units (~550 µs) at 1800 jobs/s
	// (internal/scenario). Tenant t is pinned to shard t%2, as
	// replay.Options.PinTenants does, which puts 71% of the jobs on
	// shard 0: the corpus' own deterministically hot shard.
	skewScenario = "zipf"
	skewTenants  = 8
	// skewSpeed scales the scenario's time as replay.Options.Speed does:
	// 0.75 offers 1350 jobs/s, about 0.54 of a worker pinned to shard 0
	// and 0.76 of the two workers in all. At the scenario's own rate the
	// hot shard is offered 0.74 of a worker, and a run that shared the
	// two vCPUs with a second benchmark saturated.
	skewSpeed = 0.75
	// skewBacklog is each shard's per-class admission queue, far deeper
	// than the offered load builds. When it is full, admission blocks
	// (the default policy): a host slowdown then makes the generator
	// late, which due-time latency and gen.late_ms_p99 show. With
	// RejectWhenFull, three runs in a minute when other tenants of the
	// host took CPU refused 15-35% of their jobs and failed.
	skewBacklog = 1024
	// skewWarmJobs are sent at once and awaited before timing.
	skewWarmJobs = 64
)

// skewBench is open-loop zipf-skewed tenant traffic in process, pinned
// per tenant to a shard through SubmitToCtx. It is the only workload
// where job migration, elastic quota moves, and the adaptive load-signal
// policy decide the outcome.
type skewBench struct {
	pool *xomp.ShardedPool
	born time.Time
}

func setupSkew() (bench, error) {
	team := xomp.Preset("xgomptb+naws", 2) // two workers of capacity per shard
	team.Policy = xomp.Policy{Name: "adaptive"}
	team.Backlog = skewBacklog
	p, err := xomp.NewShardedPool(xomp.ShardConfig{
		Shards:  2,
		Team:    team,
		Elastic: xomp.ElasticConfig{Enabled: true, TotalBudget: 2},
	})
	if err != nil {
		return nil, err
	}
	b := &skewBench{pool: p, born: time.Now()}
	warm := newPhase(0, 0, false)
	watch(&warm.led)
	defer watch(nil)
	evs, err := warmTraffic(skewScenario, skewWarmJobs)
	if err != nil {
		p.Close()
		return nil, err
	}
	b.run(warm, fixedSchedule(evs), time.Now())
	if warm.led.failed() != 0 {
		p.Close()
		return nil, fmt.Errorf("skew warm-up: %d of %d jobs failed", warm.led.failed(), warm.led.attempted.Load())
	}
	return b, nil
}

func (b *skewBench) close() { b.pool.Close() }

// A job's tag carries what the collector needs to know of its op: the
// op's index (skewIndexBits), its tenant (4 bits) and its due offset in
// ns (skewDueBits, 18 minutes).
const (
	skewDueBits   = 40
	skewIndexBits = 64 - 4 - skewDueBits
)

func skewTag(i, tenant int, at int64) uint64 {
	return uint64(i)<<(skewDueBits+4) | uint64(tenant)<<skewDueBits | uint64(at)
}

func skewUntag(tag uint64) (i, tenant int, at int64) {
	return int(tag >> (skewDueBits + 4)), int(tag >> skewDueBits & 0xf), int64(tag & (1<<skewDueBits - 1))
}

// skewRecord is what a run of skew traffic records.
type skewRecord struct {
	last                  time.Time
	call, late            stats.Histogram
	queue, run, hot, cold stats.Histogram
	submitted, refused    [skewTenants]int64
	admitted, completed   [skewTenants]int64
	// pinnedRun sums the run time of the jobs pinned to each shard,
	// wherever the balancer ran them.
	pinnedRun [2]time.Duration
}

// run submits ops open loop from start — each as soon as it is due, or
// once a full admission queue makes room, pinned to shard tenant%2 —
// while a collector observes completions through Subscribe, and returns
// once every admitted job completed.
func (b *skewBench) run(ph *phase, sched *schedule, start time.Time) *skewRecord {
	var rec skewRecord
	// Subscribe needs room for every subscribed job in flight: at most a
	// full admission queue per shard plus the running jobs.
	done := make(chan *xomp.Job, 2*skewBacklog+64)
	admitted := make(chan int64, 1)
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		want := int64(-1)
		for got := int64(0); want < 0 || got < want; {
			select {
			case want = <-admitted:
				continue
			case j := <-done:
				now := time.Now()
				i, tenant, at := skewUntag(j.Tag())
				err := j.Err()
				q, rt := j.QueueDelay(), j.RunTime()
				j.Release()
				got++
				tick()
				if err != nil {
					ph.led.panicked.Add(1)
					continue
				}
				ph.led.completed.Add(1)
				rec.completed[tenant]++
				rec.last = now
				due := start.Add(time.Duration(at))
				lat := dueLatency(due, now)
				ph.lat.Record(int64(lat))
				if tenant%2 == 0 {
					rec.hot.Record(int64(lat))
				} else {
					rec.cold.Record(int64(lat))
				}
				rec.queue.Record(int64(q))
				rec.run.Record(int64(rt))
				rec.pinnedRun[tenant%2] += rt
				if ph.tr != nil {
					root := ph.tr.add("op", int64(i), -1, due, now)
					ph.tr.addChildren(int64(i), root, now.Add(-(q + rt)), q, rt)
				}
			}
		}
	}()

	ctx := context.Background()
	var n int64
	pace := newPacer(start)
	for i := 0; sched.peek() != nil; i++ {
		op := *sched.peek()
		sched.pop()
		due := pace.wait(time.Duration(op.At))
		opts := xomp.SubmitOpts{Priority: xomp.Class(op.Class), Tenant: xomp.Tenant{ID: op.Tenant, Weight: 1}}
		ph.led.attempted.Add(1)
		rec.submitted[op.Tenant]++
		t0 := time.Now()
		j, err := b.pool.SubmitToCtx(ctx, op.Tenant%2, spinBody(op.Size), opts)
		t1 := time.Now()
		rec.call.Record(int64(t1.Sub(t0)))
		rec.late.Record(int64(t0.Sub(due)))
		ph.tr.add("late", int64(i), -1, due, t0)
		ph.tr.add("admit", int64(i), -1, t0, t1)
		if err != nil {
			ph.led.refused.Add(1)
			rec.refused[op.Tenant]++
			tick()
			continue
		}
		rec.admitted[op.Tenant]++
		n++
		j.SetTag(skewTag(i, op.Tenant, op.At))
		j.Subscribe(done)
	}
	admitted <- n
	<-collected
	return &rec
}

func (b *skewBench) measure(ph *phase) error {
	sched, err := newSchedule(skewScenario, ph.seed, time.Duration(ph.seconds*float64(time.Second)), skewSpeed)
	if err != nil {
		return err
	}
	if sched.n >= 1<<skewIndexBits || sched.end >= 1<<skewDueBits {
		return fmt.Errorf("skew: %d jobs over %v do not fit a job tag", sched.n, time.Duration(sched.end))
	}
	stats0 := b.pool.Stats()
	moves0 := b.pool.QuotaMoves()
	var smp *sampler
	if ph.tr != nil {
		smp = startSampler(b.pool)
	}
	u0 := readUsage()
	start := time.Now().Add(time.Millisecond)
	rec := b.run(ph, sched, start)
	ph.use = readUsage().since(u0)
	ph.window = rec.last.Sub(start)
	if smp != nil {
		smp.stop(ph.layer)
	}
	stats1 := b.pool.Stats()
	moves1 := b.pool.QuotaMoves()
	if err := b.pool.Close(); err != nil {
		return err
	}
	// Per tenant: submitted = admitted + refused, admitted = completed.
	for t := 0; t < skewTenants; t++ {
		if rec.submitted[t] != rec.admitted[t]+rec.refused[t] || rec.admitted[t] != rec.completed[t] {
			fmt.Printf("check: tenant %d submitted=%d admitted=%d refused=%d completed=%d\n",
				t, rec.submitted[t], rec.admitted[t], rec.refused[t], rec.completed[t])
			ph.led.violations.Add(1)
		}
	}
	if ph.tr == nil {
		return nil
	}
	ph.tr.linkByOp()
	L := ph.layer
	call := distOf(&rec.call, time.Microsecond)
	L["admit.call_us_p50"], L["admit.call_us_p99"] = call.P50, call.Tail
	L["admit.items_per_call"] = 1
	jobLayer(L, &rec.queue, &rec.run)
	L["tenant.hot_p99_ms"] = distOf(&rec.hot, time.Millisecond).Tail
	L["tenant.cold_p99_ms"] = distOf(&rec.cold, time.Millisecond).Tail
	L["gen.late_ms_p99"] = distOf(&rec.late, time.Millisecond).Tail
	shardLayer(L, stats0, stats1)
	// The work pinned to each shard, in workers kept busy: the hot
	// shard's share is what the balancers have to move.
	L["shard.hot_load"] = ratio(rec.pinnedRun[0].Seconds(), ph.window.Seconds())
	L["shard.cold_load"] = ratio(rec.pinnedRun[1].Seconds(), ph.window.Seconds())
	teamLayer(L, b.pool, time.Since(b.born))
	L["shard.quota_moves"] = float64(moves1 - moves0)
	memLayer(ph)
	return nil
}
