// Package pacer is the tickstop fixture: every timer-lifecycle shape the
// check judges — never-stopped tickers, early returns that skip a plain
// Stop, per-iteration time.After/time.Tick — next to the defer-Stop and
// handoff disciplines that must stay silent.
package pacer

import "time"

// NeverStopped leaks its ticker on every exit path.
func NeverStopped(work chan int) {
	t := time.NewTicker(time.Second) // want tickstop
	for range work {
		<-t.C
	}
}

// DeferStopped uses the sanctioned discipline.
func DeferStopped(work chan int) {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for range work {
		<-t.C
	}
}

// EarlyReturn stops the timer only on the straight-line path: the guard
// return escapes between the creation and the first Stop.
func EarlyReturn(ready bool) {
	t := time.NewTimer(time.Second)
	if !ready {
		return // want tickstop
	}
	<-t.C
	t.Stop()
}

// PlainStopped has no exit between creation and Stop: the textual
// discipline accepts it.
func PlainStopped() {
	t := time.NewTimer(time.Second)
	<-t.C
	t.Stop()
}

// NewPacer hands the lifecycle to the caller.
func NewPacer() *time.Ticker {
	t := time.NewTicker(time.Second)
	return t
}

// Pacer owns a handed-off ticker.
type Pacer struct {
	t *time.Ticker
}

// Start stores the ticker into the struct: judged where the field's
// owner stops it, not here.
func (p *Pacer) Start() {
	t := time.NewTicker(time.Second)
	p.t = t
}

// StopAsync hands the timer to a closure that stops it.
func StopAsync() {
	t := time.NewTimer(time.Second)
	go func() {
		<-t.C
		t.Stop()
	}()
}

// PollEach mints one unstoppable timer per iteration.
func PollEach(work []int) {
	for range work {
		<-time.After(time.Millisecond) // want tickstop
	}
}

// TickEach leaks a whole ticker per iteration.
func TickEach(work []int) {
	for range work {
		<-time.Tick(time.Millisecond) // want tickstop
	}
}

// LatestVisit calls the time.Time.After METHOD in a loop: the package
// function's namesake must not be confused with it.
func LatestVisit(times []time.Time, cutoff time.Time) int {
	n := 0
	for _, v := range times {
		if v.After(cutoff) {
			n++
		}
	}
	return n
}

// Closure creates a ticker inside a literal: the literal is judged as
// its own body.
func Closure() func() {
	return func() {
		t := time.NewTicker(time.Second) // want tickstop
		<-t.C
	}
}

// Debounce uses AfterFunc, which owns a goroutine: ctxflow territory,
// not lifecycle.
func Debounce(f func()) *time.Timer {
	return time.AfterFunc(time.Second, f)
}
