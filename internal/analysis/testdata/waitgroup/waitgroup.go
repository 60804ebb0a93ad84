// Package fixture exercises ctxflow's WaitGroup placement rule.
package fixture

import "sync"

// AddInside calls Add from the spawned goroutine; the spawner can reach
// Wait before Add runs: flagged at the Add call.
func AddInside() {
	var wg sync.WaitGroup
	go func() {
		wg.Add(1) // want ctxflow
		defer wg.Done()
	}()
	wg.Wait()
}

// MissingDone guards a goroutine that never signals; Wait blocks
// forever: flagged at the go statement.
func MissingDone(work func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // want ctxflow
		work()
	}()
	wg.Wait()
}

// Canonical is the correct pattern: Add before the spawn, deferred Done
// inside it.
func Canonical(work func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
	wg.Wait()
}

// FanIn is the canonical fan-in closer: after a loop of wg.Add, the last
// goroutine waits on the group and closes the output. It calls Wait, so
// it is the group's waiter, not a worker the Add guards.
func FanIn(n int, work func() int) chan int {
	out := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out <- work()
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}
