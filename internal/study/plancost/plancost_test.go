package plancost

import (
	"math"
	"testing"

	"wearwild/internal/gen/apps"
)

// testKinds is one user's byte totals: 7000 first-party application bytes,
// 2000 advertising and 1000 analytics.
func testKinds() *[apps.NumDomainKinds]int64 {
	var kinds [apps.NumDomainKinds]int64
	kinds[apps.KindApplication] = 7000
	kinds[apps.KindAdvertising] = 2000
	kinds[apps.KindAnalytics] = 1000
	return &kinds
}

func TestBuilder(t *testing.T) {
	// 3 days of observation, a 1 MB plan for easy numbers.
	b, err := NewBuilder(3, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	b.AddUser(testKinds())
	rep := b.Report()
	// Overhead = (2000+1000)/10000 of the traffic.
	if math.Abs(rep.MeanOverheadShare-0.3) > 1e-9 {
		t.Fatalf("overhead share = %g", rep.MeanOverheadShare)
	}
	// Monthly overhead = 3000 * 30.44/3 = 30440 bytes of a 1 MiB plan.
	wantPlan := 3000.0 * (30.44 / 3) / (1 << 20)
	if math.Abs(rep.MeanPlanSharePct-100*wantPlan) > 1e-9 {
		t.Fatalf("mean plan pct = %g, want %g", rep.MeanPlanSharePct, 100*wantPlan)
	}
	if rep.MaxPlanSharePct != rep.MeanPlanSharePct {
		t.Fatal("single user: max must equal mean")
	}
}

func TestBuilderMeanAndMax(t *testing.T) {
	b, err := NewBuilder(3, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	b.AddUser(testKinds())
	var idle [apps.NumDomainKinds]int64 // no traffic: zero shares, still a user
	b.AddUser(&idle)
	rep := b.Report()
	if math.Abs(rep.MeanOverheadShare-0.15) > 1e-9 {
		t.Fatalf("mean overhead share = %g, want 0.15", rep.MeanOverheadShare)
	}
	wantMax := 100 * 3000.0 * (30.44 / 3) / (1 << 20)
	if math.Abs(rep.MaxPlanSharePct-wantMax) > 1e-9 || math.Abs(rep.MeanPlanSharePct-wantMax/2) > 1e-9 {
		t.Fatalf("plan pct max/mean = %g/%g, want %g/%g", rep.MaxPlanSharePct, rep.MeanPlanSharePct, wantMax, wantMax/2)
	}
}

func TestBuilderDefaults(t *testing.T) {
	b, err := NewBuilder(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := b.Report()
	if rep.PlanBytes != DefaultPlanBytes {
		t.Fatalf("plan = %g", rep.PlanBytes)
	}
	if rep.MeanOverheadShare != 0 || rep.MeanPlanSharePct != 0 || rep.MaxPlanSharePct != 0 {
		t.Fatalf("empty report = %+v", *rep)
	}
}

func TestBuilderErrors(t *testing.T) {
	for _, days := range []int{0, -1} {
		if _, err := NewBuilder(days, 0); err == nil {
			t.Fatalf("window of %d days accepted", days)
		}
	}
}
