package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSubscribeDeliversEachJobOnce: many jobs multiplexed onto one
// channel each arrive exactly once, carrying the tag set at submission —
// the network edge's writer-goroutine pattern.
func TestSubscribeDeliversEachJobOnce(t *testing.T) {
	tm := admitTeam(t, 2, 128, nil)
	defer tm.Close()
	const n = 100
	ch := make(chan *Job, n)
	for i := 0; i < n; i++ {
		j, err := tm.Submit(func(*Worker) {})
		if err != nil {
			t.Fatal(err)
		}
		j.SetTag(uint64(i) + 1)
		j.Subscribe(ch)
	}
	seen := make(map[uint64]bool, n)
	for i := 0; i < n; i++ {
		select {
		case j := <-ch:
			tag := j.Tag()
			if tag == 0 || tag > n {
				t.Fatalf("tag %d outside submitted range", tag)
			}
			if seen[tag] {
				t.Fatalf("tag %d delivered twice", tag)
			}
			seen[tag] = true
			if j.state.Load() < jobDone {
				t.Fatal("delivered job not done")
			}
			j.Release()
		case <-time.After(5 * time.Second):
			t.Fatalf("delivery %d never arrived", i)
		}
	}
	select {
	case j := <-ch:
		t.Fatalf("spurious extra delivery, tag %d", j.Tag())
	default:
	}
}

// TestSubscribeAfterCompletion: subscribing a job that already finished
// delivers it from Subscribe itself, still exactly once.
func TestSubscribeAfterCompletion(t *testing.T) {
	tm := admitTeam(t, 2, 16, nil)
	defer tm.Close()
	j, err := tm.Submit(func(*Worker) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	ch := make(chan *Job, 1)
	j.Subscribe(ch)
	select {
	case got := <-ch:
		if got != j {
			t.Fatal("wrong job delivered")
		}
	case <-time.After(time.Second):
		t.Fatal("completed job never delivered")
	}
	j.Release()
}

// TestSubscribeRaceWithFinish hammers the Subscribe/finish interleaving:
// subscribing concurrently with completion must deliver exactly once,
// never zero, never twice (the Dekker hand-off between the two CAS
// sides). Run with -race.
func TestSubscribeRaceWithFinish(t *testing.T) {
	tm := admitTeam(t, 4, 64, nil)
	defer tm.Close()
	const rounds = 500
	ch := make(chan *Job, 1)
	for r := 0; r < rounds; r++ {
		j, err := tm.Submit(func(*Worker) {})
		if err != nil {
			t.Fatal(err)
		}
		j.SetTag(uint64(r) + 1)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			j.Subscribe(ch)
		}()
		select {
		case got := <-ch:
			if got.Tag() != uint64(r)+1 {
				t.Fatalf("round %d: delivered tag %d", r, got.Tag())
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: delivery lost", r)
		}
		wg.Wait()
		j.Release()
	}
}

// TestTagResetsOnRecycle: a recycled frame must not leak the previous
// generation's tag or subscription into the next submission.
func TestTagResetsOnRecycle(t *testing.T) {
	tm := admitTeam(t, 1, 16, nil)
	defer tm.Close()
	ch := make(chan *Job, 1)
	j, err := tm.Submit(func(*Worker) {})
	if err != nil {
		t.Fatal(err)
	}
	j.SetTag(777)
	j.Subscribe(ch)
	<-ch
	j.Release()

	// Drive enough submissions that the recycled frame comes back around.
	var sawStale atomic.Bool
	for i := 0; i < 64; i++ {
		k, err := tm.Submit(func(*Worker) {})
		if err != nil {
			t.Fatal(err)
		}
		if k.Tag() != 0 {
			sawStale.Store(true)
		}
		if err := k.Wait(); err != nil {
			t.Fatal(err)
		}
		k.Release()
	}
	if sawStale.Load() {
		t.Fatal("recycled frame leaked a stale tag")
	}
	select {
	case k := <-ch:
		t.Fatalf("recycled frame leaked a stale subscription (tag %d)", k.Tag())
	default:
	}
}

// TestSubscribeRecycleGenerations: the finish/Subscribe hand-off must
// never let finish touch a frame after it was delivered. A wake-token
// deposit that trailed an inline delivery would corrupt the frame's NEXT
// generation once the receiver Releases and the frame recycles — the
// stale token makes the next Wait return on an in-flight job, and a
// stale subscription would deliver the next generation to the wrong
// receiver. Hammer deliver → release → resubmit on a small pool so
// frames recycle immediately, asserting every generation's completion
// is observed exactly once and only when actually done. Run with -race.
func TestSubscribeRecycleGenerations(t *testing.T) {
	tm := admitTeam(t, 2, 16, nil)
	defer tm.Close()
	ch := make(chan *Job, 1)
	const rounds = 2000
	for r := 0; r < rounds; r++ {
		j, err := tm.Submit(func(*Worker) {})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			j.Subscribe(ch) // races finish: inline or worker-side delivery
		}()
		got := <-ch
		if got.state.Load() < jobDone {
			t.Fatalf("round %d: delivered job still in flight", r)
		}
		wg.Wait()
		got.Release()

		// The recycled frame's next generation must not inherit the
		// previous finish's wake token or subscription.
		var ran atomic.Bool
		k, err := tm.Submit(func(*Worker) { ran.Store(true) })
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Wait(); err != nil {
			t.Fatal(err)
		}
		if k.state.Load() != jobDone || !ran.Load() {
			t.Fatalf("round %d: Wait returned on an in-flight job (stale wake token)", r)
		}
		select {
		case s := <-ch:
			t.Fatalf("round %d: stale subscription delivered job %d", r, s.ID())
		default:
		}
		k.Release()
	}
}
