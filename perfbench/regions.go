package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/bots"
	"repro/internal/prof"
	"repro/internal/stats"
	"repro/xomp"
)

// fineApps spawn tiny tasks (fib, nqueens, uts, health); the rest are
// coarse. They are summed separately per round, so a scheduler change
// that helps tiny tasks but costs coarse ones shows.
var fineApps = map[string]bool{"fib": true, "nqueens": true, "uts": true, "health": true}

// regionsBench runs the nine BOTS applications back to back at the small
// scale, one parallel region each, on one team: the paper's own use of
// the runtime, and the only workload reaching region launch, the tree
// barrier, the XQueue substrate, and NA-WS on deep task DAGs.
type regionsBench struct {
	tm   *xomp.Team
	apps []bots.Benchmark // in bots.Names order
}

// setupRegions starts the team, synthesizes every application's input,
// and runs one verified warm-up region per application.
func setupRegions() (bench, error) {
	tm, err := xomp.NewTeam(pinnedConfig())
	if err != nil {
		return nil, err
	}
	r := &regionsBench{tm: tm}
	for _, name := range bots.Names {
		b, err := bots.New(name, bots.ScaleSmall)
		if err != nil {
			return nil, err
		}
		b.RunParallel(tm)
		if err := b.Verify(); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", name, err)
		}
		tick()
		r.apps = append(r.apps, b)
	}
	return r, nil
}

// close has nothing to release: a team outside service mode holds no
// goroutines between regions.
func (r *regionsBench) close() {}

// counters is the team's task-scheduler counters at one point in time.
type counters [prof.NumCounters]uint64

func readCounters(tms ...*xomp.Team) counters {
	var c counters
	for _, tm := range tms {
		for i := range c {
			c[i] += tm.Profile().Sum(prof.Counter(i))
		}
	}
	return c
}

// measure runs rounds until the phase's time is up; each round is the
// nine regions in a seeded order. Each region is timed alone and
// verified outside its span.
func (r *regionsBench) measure(ph *phase) error {
	rng := rand.New(rand.NewSource(ph.seed))
	perApp := make([]stats.Sample, len(bots.Names))
	var fine, coarse stats.Sample
	c0, a0 := readCounters(r.tm), r.tm.AllocStats()
	start := time.Now()
	end := start.Add(time.Duration(ph.seconds * float64(time.Second)))
	var busy time.Duration
	op := int64(0)
	for time.Now().Before(end) {
		var fineMS, coarseMS float64
		for _, i := range rng.Perm(len(r.apps)) {
			b := r.apps[i]
			// Each region starts from a collected heap: neither its time
			// nor the peak RSS then depends on the garbage of the apps
			// the seeded order ran before it.
			runtime.GC()
			ph.led.attempted.Add(1)
			u0 := readUsage()
			t0 := time.Now()
			if err := runRegion(b, r.tm); err != nil {
				ph.led.panicked.Add(1)
				tick()
				return nil // the team is poisoned; the ledger reports the failure
			}
			t1 := time.Now()
			ph.use.add(readUsage().since(u0))
			ph.tr.add("region", op, -1, t0, t1)
			op++
			d := t1.Sub(t0)
			busy += d
			if err := b.Verify(); err != nil {
				fmt.Printf("verify %s: %v\n", b.Name(), err)
				ph.led.bad.Add(1)
			} else {
				ph.led.completed.Add(1)
			}
			tick()
			ph.lat.Record(int64(d))
			perApp[i].Add(ms(d))
			if fineApps[b.Name()] {
				fineMS += ms(d)
			} else {
				coarseMS += ms(d)
			}
		}
		fine.Add(fineMS)
		coarse.Add(coarseMS)
	}
	// Regions are timed alone, so the window is the time spent inside
	// them, not the verification between them.
	ph.window = busy
	ph.report["fine_round_ms"] = fine.Median()
	ph.report["coarse_round_ms"] = coarse.Median()
	ph.report["rounds"] = float64(fine.N())

	if ph.tr == nil {
		return nil
	}
	L := ph.layer
	L["bots.fine_round_ms"] = ph.report["fine_round_ms"]
	L["bots.coarse_round_ms"] = ph.report["coarse_round_ms"]
	for i, name := range bots.Names {
		L["bots."+name+"_ms"] = perApp[i].Median()
	}
	c := readCounters(r.tm)
	for i := range c {
		c[i] -= c0[i]
	}
	coreLayer(L, c, ms(busy))
	a := r.tm.AllocStats()
	fresh := float64(a.FreshAllocs - a0.FreshAllocs)
	L["alloc.task_fresh_frac"] = ratio(fresh, fresh+float64(a.LocalHits-a0.LocalHits)+float64(a.GlobalHits-a0.GlobalHits))
	memLayer(ph)

	// Reference points outside the measured rounds: the sequential
	// baseline of each app, and a region with an empty body (region
	// launch plus the tree barrier alone).
	for i, b := range r.apps {
		var seq stats.Sample
		for k := 0; k < 3; k++ {
			t0 := time.Now()
			b.RunSequential()
			seq.Add(ms(time.Since(t0)))
			tick()
		}
		L["bots."+bots.Names[i]+"_seq_ms"] = seq.Median()
	}
	var empty stats.Sample
	for k := 0; k < 2000; k++ {
		t0 := time.Now()
		r.tm.Run(func(*xomp.Worker) {})
		empty.Add(us(time.Since(t0)))
	}
	tick()
	L["core.empty_region_us"] = empty.Median()
	return nil
}

// runRegion runs one application region, turning a region panic (which
// poisons the team) into an error.
func runRegion(b bots.Benchmark, tm *xomp.Team) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s region panicked: %v", b.Name(), r)
			fmt.Println(err)
		}
	}()
	b.RunParallel(tm)
	return nil
}

// coreLayer derives the task-scheduler and DLB metrics from a counter
// delta over busyMS of task execution time.
func coreLayer(L map[string]float64, c counters, busyMS float64) {
	exec := float64(c[prof.CntTasksExecuted])
	L["core.tasks_per_ms"] = ratio(exec, busyMS)
	L["core.imm_exec_frac"] = ratio(float64(c[prof.CntImmExec]), float64(c[prof.CntTasksCreated]))
	placed := float64(c[prof.CntTasksSelf] + c[prof.CntTasksLocal] + c[prof.CntTasksRemote])
	L["core.remote_frac"] = ratio(float64(c[prof.CntTasksRemote]), placed)
	L["dlb.req_per_ktask"] = ratio(float64(c[prof.CntReqSent]), exec/1000)
	L["dlb.hit_frac"] = ratio(float64(c[prof.CntReqHasSteal]), float64(c[prof.CntReqHandled]))
	L["dlb.src_empty_frac"] = ratio(float64(c[prof.CntReqSrcEmpty]), float64(c[prof.CntReqHandled]))
}
