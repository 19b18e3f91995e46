package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
	"sync/atomic"
	"time"
)

var (
	// progress counts op outcomes of any kind; the watchdog fires when it
	// stops moving while a phase has ops outstanding.
	progress atomic.Int64
	// watched is the ledger of the phase being measured, nil between
	// phases.
	watched atomic.Pointer[ledger]
)

// tick records that an op reached an outcome.
func tick() { progress.Add(1) }

// watch points the watchdog at a phase's ledger (nil: none).
func watch(l *ledger) { watched.Store(l) }

// stall is how long no op may reach an outcome while ops are outstanding.
// The slowest op, a BOTS region, takes tens of milliseconds.
const stall = 5 * time.Second

// startWatchdog fails the run when no op reaches an outcome for stall
// while ops are outstanding, in set-up as well as in a phase. It dumps
// every goroutine to standard error, counts every attempted but
// unfinished op as failed, prints the result line with correct=false,
// and exits non-zero: a stalled program is reported, never waited out.
func startWatchdog() {
	go func() {
		last, since := progress.Load(), time.Now()
		for range time.Tick(stall / 20) {
			if p := progress.Load(); p != last {
				last, since = p, time.Now()
				continue
			}
			if time.Since(since) < stall {
				continue
			}
			l := watched.Load()
			if l != nil && l.unfinished() == 0 {
				continue // nothing outstanding: a phase between ops is not a stall
			}
			fmt.Fprintf(os.Stderr, "perfbench: stall: no op finished for %v; goroutines:\n", stall)
			_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2) // best-effort diagnostics
			out := output{Metrics: map[string]metricOut{}}
			if l != nil {
				out.Attempted, out.Failed = l.attempted.Load(), l.failed()
				fmt.Printf("stalled: attempted=%d completed=%d unfinished=%d\n",
					out.Attempted, l.completed.Load(), l.unfinished())
			}
			if out.Attempted == 0 {
				out.Attempted, out.Failed = 1, 1 // stalled in set-up: the set-up itself failed
			}
			line, _ := json.Marshal(out) // a fixed struct of numbers always encodes
			fmt.Println(string(line))
			os.Exit(3)
		}
	}()
}
