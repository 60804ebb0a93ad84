package sim

import "testing"

// TestSweepAllocBudget bounds the generator sweep's heap allocations per
// subscriber, the contract of DESIGN.md §9's slab and scratch discipline:
// once a scratch's slabs have grown to the busiest subscriber, generating
// one more subscriber allocates only its RNG streams (three objects per
// randx Split, over 90% of the count) and the few per-session helper
// values the traffic model builds. The counts are exact, since one seed
// always draws the same subscribers and AllocsPerRun runs on one
// goroutine: 1,050.0 per wearable owner and 421.3 per ordinary user on
// go1.24.0, the same under -race. The budget allows less than half an
// allocation per subscriber above them, so a defect that allocates once
// per subscriber, day, week or record fails; a toolchain whose runtime
// allocates differently moves the measured figures, which are then
// re-measured. Owners and ordinary users run different loops, so they
// are budgeted apart.
func TestSweepAllocBudget(t *testing.T) {
	cfg := tinyConfig(42)
	ds, err := generateSubstrate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := newUserGen(cfg, ds.Population, ds.Topology, ds.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	var sc genScratch
	gen := func(lo, hi int) func() {
		return func() {
			for i := lo; i < hi; i++ {
				g.genUser(i, &sc)
				sc.sortCanonical()
			}
		}
	}
	n := len(ds.Population.Users)
	gen(0, n)() // grow the slabs to the busiest subscriber
	for _, tc := range []struct {
		name     string
		lo, hi   int
		measured float64
	}{
		{"wearable owners", 0, g.owners, 1050.0},
		{"ordinary users", g.owners, n, 421.3},
	} {
		per := testing.AllocsPerRun(2, gen(tc.lo, tc.hi)) / float64(tc.hi-tc.lo)
		if per > tc.measured+0.5 {
			t.Errorf("%s: %.2f allocations per subscriber, budget %.1f + 0.5", tc.name, per, tc.measured)
		}
	}
}
