// Package spawn exercises every verdict of ctxflow's bounded-exit rule:
// the flagged spawns (literal, named-with-chain, bodiless blocking leaf,
// blocking callee inside a literal) and each exit discipline, which must
// stay silent. A spawn the WaitGroup placement rule flags is reported
// once.
package spawn

import (
	"sync"
	"time"

	"wearwild/internal/mnet/pipe"
)

// LeakLiteral blocks on a receive from a channel no one is guaranteed
// to fill.
func LeakLiteral() {
	results := make(chan int)
	go func() { // want ctxflow
		<-results
	}()
}

// LeakNamed launches the blocking named worker with no join: the
// finding lands on the go statement and carries the spawn step.
func LeakNamed(ch chan int) {
	go pipe.Pump(ch) // want ctxflow
}

// LeakViaCall spawns a literal whose only blocking act is the call
// into the parked worker: the out-edge, not the body, is the evidence.
func LeakViaCall(ch chan int) {
	go func() { // want ctxflow
		pipe.Pump(ch)
	}()
}

// LeakWait parks a bodiless blocking leaf directly.
func LeakWait(wg *sync.WaitGroup) {
	go wg.Wait() // want ctxflow
}

// JoinedWorker carries a WaitGroup join: clean.
func JoinedWorker(wg *sync.WaitGroup, ch chan int) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range ch {
		}
	}()
}

// GuardedLeak spawns after wg.Add a body with no Done that also parks
// on a receive: the placement rule flags the go statement, and the
// bounded-exit rule gives no second verdict.
func GuardedLeak(wg *sync.WaitGroup, ch chan int) {
	wg.Add(1)
	go func() { // want ctxflow
		<-ch
	}()
}

// DoneSelect selects on a shutdown channel: clean.
func DoneSelect(work chan int, done chan struct{}) {
	go func() {
		for {
			select {
			case <-work:
			case <-done:
				return
			}
		}
	}()
}

// BufferedHandoff sends its one result into a channel made with
// capacity 1 in the spawner and runs off its end: clean.
func BufferedHandoff(run func() int) chan int {
	out := make(chan int, 1)
	go func() {
		out <- run()
	}()
	return out
}

// Closer spawns the named feeder whose completion close bounds it:
// clean.
func Closer(n int) chan int {
	ch := make(chan int)
	go pipe.Feed(ch, n)
	return ch
}

// DynamicSpawn launches through a func value: unresolvable, silent by
// the documented under-approximation.
func DynamicSpawn(ch chan int) {
	f := func() {
		<-ch
	}
	go f()
}

// NonBlocking spawns a body that cannot park: silent, bounded by its
// own code.
func NonBlocking(counter *int) {
	go func() {
		*counter = *counter + 1
	}()
}

// TickLoop wakes on a ticker forever: a timer receive bounds one wait,
// never the goroutine, so it is no exit.
func TickLoop(flush func()) {
	tk := time.NewTicker(time.Second)
	go func() { // want ctxflow
		for {
			<-tk.C
			flush()
		}
	}()
}

// TickSelect selects on work or a ticker, never on a shutdown signal.
func TickSelect(work chan int, flush func()) {
	tk := time.NewTicker(time.Second)
	go func() { // want ctxflow
		for {
			select {
			case <-work:
			case <-tk.C:
				flush()
			}
		}
	}()
}

// PollSleep polls with a default select and sleeps between polls: it
// blocks through the call, which no channel vocabulary bounds.
func PollSleep(work chan int) {
	go func() { // want ctxflow
		for {
			select {
			case <-work:
			default:
			}
			time.Sleep(time.Millisecond)
		}
	}()
}
