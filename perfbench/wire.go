package main

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/jobserve"
	"repro/internal/replay"
	"repro/internal/stats"
	"repro/internal/wire"
	"repro/xomp"
)

const (
	// wireScenario is the corpus preset the wire traffic is tiled from:
	// a calm Poisson mix of interactive, batch and background jobs
	// (internal/scenario). Its deadlines are not sent: an expired job
	// would be a failed op, and the benchmark measures latency instead.
	wireScenario = "steady"
	// wireSpeed compresses the scenario's time as replay.Options.Speed
	// does, from its own 2000 jobs/s to 5000: still far below the edge's
	// saturation, so wakeup and edge delays, not queueing, decide
	// latency. At 2000 jobs/s the two-vCPU host flips between a regime
	// where idle goroutines spin and one where they sleep, and CPU per
	// job spread 0.17 (interquartile range over median) over five runs.
	wireSpeed = 2.5
	// wireMaxFrame caps the records the generator packs into one frame
	// when several are due at once.
	wireMaxFrame = 64
	// wireWarmJobs are sent at once and answered before timing; they warm
	// the connection, the codec buffers and the pool.
	wireWarmJobs = 512
	// wireInFlight bounds the ops sent but not yet answered, 13 s of
	// arrivals; a run that falls further behind fails.
	wireInFlight = 1 << 16
)

// wireBench drives the serving edge: one loopback TCP connection into
// jobserve.Serve over the same 2×1 pool as the pool workload, with
// open-loop arrivals tiled from the corpus' steady scenario. Its batch
// and background jobs exceed 8192 units, so the server fans them out
// into subtasks.
type wireBench struct {
	pool *xomp.ShardedPool
	srv  *jobserve.Server
	cl   *jobserve.Client
	born time.Time
}

func setupWire() (bench, error) {
	p, err := shardedPinned()
	if err != nil {
		return nil, err
	}
	b := &wireBench{pool: p, born: time.Now()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err == nil {
		b.srv, err = jobserve.Serve(ln, jobserve.Config{Pool: p})
	}
	if err == nil {
		b.cl, err = jobserve.Dial(b.srv.Addr().String(), nil)
	}
	if err == nil {
		var evs []replay.JobEvent
		evs, err = warmTraffic(wireScenario, wireWarmJobs)
		warm := newPhase(0, 0, false)
		watch(&warm.led)
		if err == nil {
			_, err = b.run(warm, fixedSchedule(evs), time.Now())
		}
		watch(nil)
		if err == nil && warm.led.failed()+warm.led.violations.Load() != 0 {
			err = fmt.Errorf("wire warm-up: %d of %d jobs failed", warm.led.failed(), warm.led.attempted.Load())
		}
	}
	if err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *wireBench) close() {
	if b.cl != nil {
		b.cl.Close()
	}
	if b.srv != nil {
		b.srv.Close()
	}
	b.pool.Close()
}

// wireRecord is what one run of wire traffic records.
type wireRecord struct {
	queue, run, edge, late, send stats.Histogram
	last                         time.Time
}

// run sends the schedule open loop from start — every op due by the
// time the generator wakes goes out in one frame — while a receiver
// matches the answers to sequence numbers, and returns once every op was
// answered.
func (b *wireBench) run(ph *phase, sched *schedule, start time.Time) (*wireRecord, error) {
	var rec wireRecord
	n := sched.n
	base := b.cl.Seq()
	// due holds the due offset+1 of each op in flight, at its sequence
	// number modulo wireInFlight; the receiver swaps it to 0 on the
	// answer, so a second answer finds 0.
	due := make([]atomic.Int64, wireInFlight)
	// The receiver owns what it records until recvDone closes.
	var (
		recvErr       error
		recvDone      = make(chan struct{})
		dupes, strays int
	)
	go func() {
		defer close(recvDone)
		for got := 0; got < n; {
			res, err := b.cl.Recv()
			now := time.Now()
			if err != nil {
				recvErr = err
				return
			}
			for _, r := range res {
				i := int(r.Seq - base)
				if r.Seq < base || i >= n {
					strays++
					continue
				}
				d := due[i%wireInFlight].Swap(0)
				if d == 0 {
					dupes++
					continue
				}
				got++
				tick()
				rec.last = now
				switch r.Status {
				case wire.StatusOK:
					ph.led.completed.Add(1)
				case wire.StatusPanicked:
					ph.led.panicked.Add(1)
					continue
				default:
					ph.led.refused.Add(1)
					continue
				}
				at := start.Add(time.Duration(d - 1))
				q, rt := time.Duration(r.QueueNS), time.Duration(r.RunNS)
				lat := dueLatency(at, now)
				ph.lat.Record(int64(lat))
				rec.queue.Record(int64(q))
				rec.run.Record(int64(rt))
				rec.edge.Record(int64(lat - q - rt))
				if ph.tr != nil {
					root := ph.tr.add("op", int64(i), -1, at, now)
					ph.tr.addChildren(int64(i), root, now.Add(-(q + rt)), q, rt)
				}
			}
		}
	}()

	recs := make([]wire.SubmitRecord, 0, wireMaxFrame)
	dues := make([]time.Time, 0, wireMaxFrame)
	pace := newPacer(start)
	for i := 0; sched.peek() != nil; i += len(recs) {
		pace.wait(time.Duration(sched.peek().At))
		now := time.Now()
		recs, dues = recs[:0], dues[:0]
		for ev := sched.peek(); ev != nil && len(recs) < wireMaxFrame && !start.Add(time.Duration(ev.At)).After(now); ev = sched.peek() {
			if !due[(i+len(recs))%wireInFlight].CompareAndSwap(0, ev.At+1) {
				return nil, fmt.Errorf("wire: more than %d jobs in flight", wireInFlight)
			}
			recs = append(recs, wire.SubmitRecord{Class: ev.Class, TenantID: ev.Tenant, Size: ev.Size})
			dues = append(dues, start.Add(time.Duration(ev.At)))
			sched.pop()
		}
		ph.led.attempted.Add(int64(len(recs)))
		_, err := b.cl.Submit(recs)
		if err == nil {
			err = b.cl.Flush()
		}
		sent := time.Now()
		if err != nil {
			return nil, fmt.Errorf("wire submit: %w", err)
		}
		rec.send.Record(int64(sent.Sub(now)))
		for k, at := range dues {
			rec.late.Record(int64(now.Sub(at)))
			ph.tr.add("late", int64(i+k), -1, at, now)
			ph.tr.add("send", int64(i+k), -1, now, sent)
		}
	}
	<-recvDone
	if recvErr != nil {
		return nil, fmt.Errorf("wire receive: %w", recvErr)
	}
	// Every sequence number must get exactly one answer.
	if dupes+strays > 0 {
		fmt.Printf("check: %d duplicate and %d unknown answers\n", dupes, strays)
		ph.led.violations.Add(int64(dupes + strays))
	}
	return &rec, nil
}

func (b *wireBench) measure(ph *phase) error {
	sched, err := newSchedule(wireScenario, ph.seed, time.Duration(ph.seconds*float64(time.Second)), wireSpeed)
	if err != nil {
		return err
	}
	stats0, wire0 := b.pool.Stats(), b.srv.Wire()
	var smp *sampler
	if ph.tr != nil {
		smp = startSampler(b.pool)
	}
	u0 := readUsage()
	start := time.Now().Add(time.Millisecond)
	rec, err := b.run(ph, sched, start)
	if err != nil {
		return err
	}
	ph.use = readUsage().since(u0)
	ph.window = rec.last.Sub(start)
	if smp != nil {
		smp.stop(ph.layer)
	}
	stats1, wire1 := b.pool.Stats(), b.srv.Wire()
	b.close()
	if ph.tr == nil {
		return nil
	}
	ph.tr.linkByOp()
	L := ph.layer
	jobLayer(L, &rec.queue, &rec.run)
	e := distOf(&rec.edge, time.Microsecond)
	L["edge.us_p50"], L["edge.us_p99"] = e.P50, e.Tail
	L["client.send_us_p50"] = distOf(&rec.send, time.Microsecond).P50
	L["gen.late_ms_p99"] = distOf(&rec.late, time.Millisecond).Tail
	in := float64(wire1.JobsIn - wire0.JobsIn)
	L["wire.jobs_per_in_frame"] = ratio(in, float64(wire1.FramesIn-wire0.FramesIn))
	L["wire.results_per_out_frame"] = ratio(float64(wire1.ResultsOut-wire0.ResultsOut), float64(wire1.FramesOut-wire0.FramesOut))
	L["wire.bytes_per_job"] = ratio(float64(wire1.BytesIn-wire0.BytesIn+wire1.BytesOut-wire0.BytesOut), in)
	shardLayer(L, stats0, stats1)
	teamLayer(L, b.pool, time.Since(b.born))
	memLayer(ph)
	return nil
}
