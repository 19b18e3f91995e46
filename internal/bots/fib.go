package bots

import (
	"fmt"

	"repro/internal/core"
)

// Fib is the BOTS Fibonacci benchmark: one task per recursive call with no
// cutoff, the most extreme fine-grained workload in the suite (the paper
// measures 10–80 cycles per task). Its task DAG has a long critical path
// and little parallel slack, which is why NA-RP degrades it (§VI-B1).
type Fib struct {
	n      int
	result uint64
	ran    bool
}

// NewFib returns the instance for the given scale.
func NewFib(sc Scale) *Fib {
	n := map[Scale]int{ScaleTest: 18, ScaleSmall: 23, ScaleMedium: 26, ScaleLarge: 29}[sc]
	return &Fib{n: n}
}

// Name implements Benchmark.
func (f *Fib) Name() string { return "fib" }

// Params implements Benchmark.
func (f *Fib) Params() string { return fmt.Sprintf("n=%d", f.n) }

// RunParallel implements Benchmark.
func (f *Fib) RunParallel(tm *core.Team) {
	tm.Run(func(w *core.Worker) {
		f.result = fibTask(w, f.n)
	})
	f.ran = true
}

// RunTask implements TaskRunner: the same computation as one job body.
func (f *Fib) RunTask(w *core.Worker) {
	w.TaskGroup(func(w *core.Worker) { f.result = fibTask(w, f.n) })
	f.ran = true
}

func fibTask(w *core.Worker, n int) uint64 {
	if n < 2 {
		return uint64(n)
	}
	var a uint64
	w.Spawn(func(w *core.Worker) { a = fibTask(w, n-1) })
	b := fibTask(w, n-2)
	w.TaskWait()
	return a + b
}

// RunSequential implements Benchmark: the same doubly recursive algorithm
// as the task version, without tasks (fibSerial), so it is the honest
// single-threaded baseline.
func (f *Fib) RunSequential() { _ = fibSerial(f.n) }

// fibIter is Verify's reference: linear, so checking a result costs
// nothing next to computing it.
func fibIter(n int) uint64 {
	a, b := uint64(0), uint64(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

// Verify implements Benchmark.
func (f *Fib) Verify() error {
	if !f.ran {
		return fmt.Errorf("fib: Verify before RunParallel")
	}
	if want := fibIter(f.n); f.result != want {
		return fmt.Errorf("fib(%d) = %d, want %d", f.n, f.result, want)
	}
	return nil
}
