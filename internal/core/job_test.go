package core

import (
	"runtime"
	"testing"

	"repro/internal/load"
)

// TestJobRecycleLateDeposit forces the interleaving behind the frame
// recycle stall: finish has published done but not yet deposited the wake
// token when a waiter returns, releases the frame, and the frame is
// resubmitted. The test plays finish itself on a frame it drew from the
// pool: it publishes done, then deposits only once another goroutine has
// moved the job out of done — as late as any schedule allows. The late
// deposit must never reach the next generation, where it would let Wait
// return on a job still in flight and block that generation's own finish
// on the full token channel.
func TestJobRecycleLateDeposit(t *testing.T) {
	tm := admitTeam(t, 1, 8, nil) // one worker: one frame-pool lane
	defer tm.Close()
	j := tm.acquireJob(0, func(*Worker) {}, load.ClassBatch, load.Tenant{})
	j.state.Store(jobDone) // finish's publish; its deposit is still to come
	deposited := make(chan struct{})
	go func() {
		for j.state.Load() == jobDone {
			runtime.Gosched()
		}
		j.wake <- struct{}{} // finish's late deposit, its last touch
		close(deposited)
	}()
	if err := j.Wait(); err != nil { // fast path: done is published
		t.Fatal(err)
	}
	j.Release()

	gate := make(chan struct{})
	k, err := tm.Submit(func(*Worker) { <-gate })
	if err != nil {
		t.Fatal(err)
	}
	if k != j {
		close(gate)
		t.Fatal("released frame was not recycled by the next submission")
	}
	<-deposited
	if len(k.wake) > 0 {
		err := k.Wait()
		early := k.state.Load() < jobDone
		<-k.wake // take the stale token, so k's finish can deposit its own
		close(gate)
		if early {
			t.Fatalf("next generation's Wait returned while it was still in flight (err %v)", err)
		}
		t.Fatal("next generation holds a stale wake token")
	}
	close(gate)
	if err := k.Wait(); err != nil {
		t.Fatal(err)
	}
	if k.state.Load() < jobDone {
		t.Fatal("Wait returned on a job still in flight")
	}
	k.Release()
}

// TestJobCycleAllocs: a warmed submit → complete → release cycle
// allocates nothing, whether completion is observed with Wait or through
// a Subscribe channel — the frame and its token channel are recycled.
func TestJobCycleAllocs(t *testing.T) {
	const workers = 2
	tm := admitTeam(t, workers, 64, nil)
	defer tm.Close()
	body := func(*Worker) {}
	ch := make(chan *Job, 1)
	cycles := []struct {
		name string
		run  func()
	}{
		{"wait", func() {
			j, err := tm.Submit(body)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Wait(); err != nil {
				t.Fatal(err)
			}
			j.Release()
		}},
		{"subscribe", func() {
			j, err := tm.Submit(body)
			if err != nil {
				t.Fatal(err)
			}
			j.Subscribe(ch)
			(<-ch).Release()
		}},
	}
	for _, c := range cycles {
		for i := 0; i < 4*workers; i++ { // one frame per pool lane, and then some
			c.run()
		}
		if n := testing.AllocsPerRun(200, c.run); n != 0 {
			t.Errorf("%s cycle: %.3f allocs per run, want 0", c.name, n)
		}
	}
}
