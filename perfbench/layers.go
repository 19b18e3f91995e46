package main

import (
	"sync"
	"time"

	"repro/xomp"
)

// sampleEvery is the traced run's load-signal sampling period.
const sampleEvery = 2 * time.Millisecond

// sampler polls the pool's exported live views — ShardedPool.Stats and
// each shard's Team.Signals — during a traced phase.
type sampler struct {
	pool *xomp.ShardedPool
	done chan struct{}
	wg   sync.WaitGroup

	n                                      float64
	depth, idle, steal, service, hotActive float64
}

func startSampler(p *xomp.ShardedPool) *sampler {
	s := &sampler{pool: p, done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *sampler) sample() {
	st := s.pool.Stats()
	s.n++
	s.hotActive += float64(st[0].ActiveWorkers)
	shards := float64(len(st))
	for i, x := range st {
		s.depth += float64(x.QueueDepth)
		sig := s.pool.Team(i).Signals()
		s.idle += sig.IdleRatio / shards
		s.steal += sig.StealRate
		s.service += sig.ServiceNS / 1e3 / shards
	}
}

// stop ends sampling and adds the sampled means to L.
func (s *sampler) stop(L map[string]float64) {
	close(s.done)
	s.wg.Wait()
	L["intake.depth_mean"] = ratio(s.depth, s.n)
	L["load.idle_ratio"] = ratio(s.idle, s.n)
	L["load.steal_rate"] = ratio(s.steal, s.n)
	L["load.service_us"] = ratio(s.service, s.n)
	L["shard.hot_active_mean"] = ratio(s.hotActive, s.n)
}

// shardLayer adds the sharded-pool metrics over a phase from two Stats
// snapshots.
func shardLayer(L map[string]float64, before, after []xomp.ShardStats) {
	var done, migrated, most float64
	for i := range after {
		c := float64(after[i].JobsCompleted - before[i].JobsCompleted)
		done += c
		most = max(most, c)
		migrated += float64(after[i].MigratedIn - before[i].MigratedIn)
	}
	L["shard.migrated_frac"] = ratio(migrated, done)
	L["shard.completed_skew"] = ratio(most, done/float64(len(after)))
}

// teamLayer adds the task-scheduler, allocator and policy counters of a
// closed pool's teams. Per-worker counters are only safe to read once the
// workers have stopped, so they cover the pool's whole life (warm-up
// included), and the task rate is over that life.
func teamLayer(L map[string]float64, p *xomp.ShardedPool, life time.Duration) {
	teams := make([]*xomp.Team, p.Shards())
	var fresh, gets, switches float64
	for i := range teams {
		tm := p.Team(i)
		teams[i] = tm
		a := tm.AllocStats()
		fresh += float64(a.FreshAllocs)
		gets += float64(a.FreshAllocs + a.LocalHits + a.GlobalHits)
		switches += float64(tm.Profile().PolicySwitchTotal())
	}
	coreLayer(L, readCounters(teams...), ms(life))
	L["alloc.task_fresh_frac"] = ratio(fresh, gets)
	L["load.policy_switches"] = switches
	L["shard.quota_moves"] = float64(p.QuotaMoves())
}
