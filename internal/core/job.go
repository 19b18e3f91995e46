package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/load"
)

// Job is the handle to one unit of work submitted to a serving Team (see
// Team.Serve and Team.Submit). A job is an independent root task plus every
// task it transitively spawns; many jobs coexist on one team, interleaved
// task-by-task across the shared XQueue/LOMP/GOMP substrate.
//
// Unlike a parallel region, which detects termination with the team-wide
// barrier and task counters, a job carries its own quiescence detection:
// the root task's reference count covers the job's whole task subtree
// (children decrement their parent only when their own subtree completes),
// so the job is done exactly when the root's count reaches zero — no
// barrier, and no coordination with other jobs in flight.
//
// Panics are captured per job: a panicking task body fails its job, cancels
// the job's remaining task bodies, and surfaces the panic value from Wait
// as a *PanicError. Other jobs and the team itself are unaffected.
//
// Job frames are recycled: the submit path draws them from the team's
// multi-level frame pool, and a caller that is done with a handle may
// return it with Release so steady-state submission allocates nothing.
// Release is optional — an unreleased frame is ordinary garbage.
//
// Completion is one state word plus one wake token. Every completion
// operation is a transition on state:
//
//	inFlight   → done        finish, no subscriber: deposits the token
//	inFlight   → subscribed  Subscribe before completion
//	subscribed → delivered   finish: sends the handle to the subscriber
//	done       → delivered   Subscribe after completion: takes the token
//	done       → released    Release: takes the token
//	delivered  → released    Release
//
// The token rule keeps recycling safe: finish deposits the token only on
// inFlight → done, and that deposit is its last touch of the frame;
// whoever moves the job out of done takes the token for good before
// handing the frame on. A Release racing a finish that has published
// done but not yet deposited therefore waits for the deposit, and a
// recycled frame never carries a token into its next generation.
type Job struct {
	id   int64
	root Task

	// state is the completion state above; wake is the one-token channel,
	// allocated once per frame lifetime, that each Wait takes and puts
	// back so any number of waiters drain through; sub is the Subscribe
	// channel, written before the inFlight → subscribed transition that
	// publishes it to finish.
	state atomic.Uint32
	wake  chan struct{}
	sub   chan *Job

	// class is the job's admission priority class (SubmitOpts.Priority),
	// fixed at submission: it selects the admission queue, survives
	// migration (the job re-enters the destination team's same-class
	// queue), and is recorded on the JobRecord.
	class load.Class

	// tenant is the submitting tenant (SubmitOpts.Tenant), fixed at
	// submission like class: it keys the per-tenant gauges and counters
	// along the job's whole path (admission, adoption, migration,
	// completion) and is recorded on the JobRecord.
	tenant load.Tenant

	// failed is raised by the first panicking task, which alone then
	// writes panicVal/panicStack; later tasks of this job skip their
	// bodies (cancellation) but keep completion accounting, so the job
	// still quiesces.
	failed     atomic.Bool
	panicVal   any
	panicStack []byte

	// migrated is set when a second-level balancer moved this job, while
	// still queued, from the team it was submitted to onto another team
	// (see MigrateQueuedJob).
	migrated atomic.Bool

	// tag is an opaque caller-set value carried through the job's
	// lifetime (the network edge stores the connection-relative wire
	// sequence number here).
	tag atomic.Uint64

	// home/lane identify the frame pool (the submitting team's, even
	// after a migration) and the pool lane the frame came from.
	home *Team
	lane int

	// Profiling fields: the adopting worker and nanosecond timestamps on
	// the executing team profile's clock. worker/startNS are written by
	// the adopter before the root runs; endNS by the completing worker;
	// submitNS by Submit before the job is published, and rebased onto the
	// destination team's clock when the job migrates. The atomic wrapper
	// types guarantee the alignment 64-bit atomics need on 32-bit
	// platforms (and make the migration rebase race-free against readers).
	worker   atomic.Int32
	submitNS atomic.Int64
	startNS  atomic.Int64
	endNS    atomic.Int64
}

// Job completion states, ordered so that state >= jobDone means the job
// has completed.
const (
	jobInFlight uint32 = iota
	jobSubscribed
	jobDone
	jobDelivered
	jobReleased
)

// PanicError is the error Job.Wait returns when one of the job's task
// bodies panicked; Value is the recovered panic value of the first panic
// and Stack the goroutine stack captured at its recovery point, locating
// the faulty task body (the panic is recovered per task, so the process
// stack region mode would have left behind does not exist here).
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("core: job task panicked: %v", e.Value) }

// ID returns the job's submission sequence number on its team (1-based).
func (j *Job) ID() int64 { return j.id }

// Wait blocks until every task of the job has completed. It returns nil on
// success and a *PanicError when any of the job's task bodies panicked.
func (j *Job) Wait() error {
	if j.state.Load() < jobDone {
		<-j.wake
		j.wake <- struct{}{} // pass the completion token to the next waiter
	}
	return j.Err()
}

// Err returns the job's failure, or nil if the job succeeded or is still
// in flight.
func (j *Job) Err() error {
	if j.state.Load() < jobDone || j.panicVal == nil {
		return nil
	}
	return &PanicError{Value: j.panicVal, Stack: j.panicStack}
}

// Release returns the job's frame to its team's pool for reuse, making
// steady-state submission allocation-free. It is a no-op while the job is
// still in flight, on a second call, and on a nil job — but never call it
// while another goroutine may still use this handle (a concurrent Wait or
// Err): Release transfers ownership of the frame exactly like freeing it,
// and the next Submit may hand the same frame to an unrelated caller. A
// subscribed job is released by its receiver, after delivery. Releasing
// is optional; an unreleased handle is simply garbage collected.
func (j *Job) Release() {
	if j == nil {
		return
	}
	switch {
	case j.state.CompareAndSwap(jobDone, jobReleased):
		<-j.wake // finish's deposit, possibly still on its way
	case j.state.CompareAndSwap(jobDelivered, jobReleased):
	default:
		return
	}
	if j.home != nil {
		j.home.releaseJob(j)
	}
}

// finish publishes completion. Without a subscriber it moves the job to
// done and deposits the wake token — its last touch of the frame, which
// a waiter may Release the moment the token lands. A subscribed job goes
// to delivered instead and its handle to the subscriber, which owns it
// from the send on.
func (j *Job) finish() {
	if j.state.CompareAndSwap(jobInFlight, jobDone) {
		j.wake <- struct{}{}
		return
	}
	ch := j.sub
	j.state.Store(jobDelivered)
	ch <- j
}

// Subscribe registers ch to receive the job's handle exactly once when
// it completes — the channel-driven alternative to Wait for callers
// multiplexing many jobs onto one receiver (the network edge's writer
// goroutine). It may be called before or after completion: a job that is
// already done is delivered from Subscribe itself, otherwise the
// completing worker delivers it.
//
// Contract: the receiver owns completion for a subscribed job. No other
// goroutine may Wait, Err, or Release the handle, and ch must have
// capacity for every subscribed job in flight — the delivery send is the
// completing worker's last action, and a full channel would stall it.
// One channel may serve any number of jobs; at most one Subscribe per
// job generation.
func (j *Job) Subscribe(ch chan *Job) {
	j.sub = ch
	if j.state.CompareAndSwap(jobInFlight, jobSubscribed) {
		return // finish delivers
	}
	<-j.wake // done: take finish's token for good before handing the frame on
	j.state.Store(jobDelivered)
	ch <- j
}

// SetTag attaches an opaque caller value to the job for the rest of its
// generation; Tag reads it back. The network edge keys result records by
// it. Reset on frame recycling like every other per-submission field.
func (j *Job) SetTag(v uint64) { j.tag.Store(v) }

// Tag returns the value set by SetTag (0 if never set).
func (j *Job) Tag() uint64 { return j.tag.Load() }

// resetForSubmit re-initializes a (possibly recycled) frame for one
// submission. The frame pool hands frames to one submitter at a time, so
// no other goroutine can observe the reset.
func (j *Job) resetForSubmit(tm *Team, lane int, id int64, fn TaskFunc, class load.Class, tenant load.Tenant) {
	if j.wake == nil {
		j.wake = make(chan struct{}, 1)
	}
	j.id = id
	j.class = class
	j.tenant = tenant
	j.state.Store(jobInFlight)
	j.sub = nil
	j.failed.Store(false)
	j.panicVal, j.panicStack = nil, nil
	j.migrated.Store(false)
	j.tag.Store(0)
	j.home = tm
	j.lane = lane
	j.worker.Store(-1)
	j.submitNS.Store(0)
	j.startNS.Store(0)
	j.endNS.Store(0)
	j.root.reset(fn, nil, 0, 0)
	j.root.noRecycle = true // the root outlives the region; never task-pool it
	j.root.job = j
}

// Worker returns the worker that adopted the job's root task, or -1 while
// the job is still queued. After a migration the id refers to a worker of
// the team the job migrated to.
func (j *Job) Worker() int { return int(j.worker.Load()) }

// Migrated reports whether a second-level balancer moved this job off the
// team it was submitted to while it was still queued (see MigrateQueuedJob).
func (j *Job) Migrated() bool { return j.migrated.Load() }

// Class returns the job's admission priority class.
func (j *Job) Class() load.Class { return j.class }

// Tenant returns the submitting tenant (zero value for single-tenant
// callers).
func (j *Job) Tenant() load.Tenant { return j.tenant }

// QueueDelay returns how long the job waited in the admission queue before
// a worker adopted it. Valid once the job has started.
func (j *Job) QueueDelay() time.Duration {
	return time.Duration(j.startNS.Load() - j.submitNS.Load())
}

// RunTime returns the time from adoption to quiescence. Valid after Wait.
func (j *Job) RunTime() time.Duration {
	return time.Duration(j.endNS.Load() - j.startNS.Load())
}

// recordPanic captures the first panic value and its stack and fails the
// job, cancelling its remaining task bodies. The failed CAS elects the one
// writer of the panic fields; Err reads them only after completion.
func (j *Job) recordPanic(r any, stack []byte) {
	if j.failed.CompareAndSwap(false, true) {
		j.panicVal, j.panicStack = r, stack
	}
}
