// Package sim mounts at the generator hot-path root: its loops seed
// every per-iteration allocation shape next to the reuse disciplines
// that pass, and its calls into help and population exercise the
// reachability chain and the setup-package exemption.
package sim

import (
	"fmt"

	"wearwild/internal/gen/population"
	"wearwild/internal/help"
)

// Event is one generated record.
type Event struct {
	ID   int
	Name string
}

// Generate seeds the flagged shapes: pointer and container literals,
// cap-unguarded append, per-iteration make, Sprintf, a string
// conversion and a closure — all inside the per-record loop.
func Generate(n int) int {
	var ptrs []*Event
	total := 0
	for i := 0; i < n; i++ {
		e := &Event{ID: i}           // want membound
		ptrs = append(ptrs, e)       // want membound
		ids := []int{i}              // want membound
		m := map[int]int{i: i}       // want membound
		buf := make([]byte, 16)      // want membound
		s := fmt.Sprintf("ev-%d", i) // want membound
		bs := []byte(s)              // want membound
		f := func() int { return i } // want membound
		total += e.ID + len(ids) + len(m) + len(buf) + len(bs) + f()
	}
	return total + len(ptrs) + help.Fill(n) + population.Setup(n)
}

// Reuse shows the disciplines that pass: slab reset, cap-guarded
// regrow, make-with-cap, in-place filter aliasing, value literals and a
// closure hoisted above the loop.
func Reuse(n int, evs []Event) int {
	out := make([]Event, 0, n)
	var slab []byte
	double := func(x int) int { return 2 * x }
	total := 0
	for i := 0; i < n; i++ {
		slab = slab[:0]
		if cap(slab) < i {
			slab = make([]byte, 0, i)
		}
		slab = append(slab, byte(i))
		out = append(out, Event{ID: i})
		e := Event{ID: double(i)}
		total += e.ID + len(slab)
	}
	keep := evs[:0]
	for _, e := range evs {
		if e.ID > 0 {
			keep = append(keep, e)
		}
	}
	return total + len(out) + len(keep)
}
