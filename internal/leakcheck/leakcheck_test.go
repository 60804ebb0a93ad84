package leakcheck

import (
	"strings"
	"testing"
	"time"
)

// park is a module function, so a goroutine blocked in it is a module
// goroutine.
func park(release chan struct{}) { <-release }

// TestSurvivorsSeesParkedGoroutine: a goroutine parked in module code is
// reported with its stack and creation site until it exits; one noted in
// skip, and the caller's own, never are.
func TestSurvivorsSeesParkedGoroutine(t *testing.T) {
	release := make(chan struct{})
	go park(release)
	left := survivors(nil, 50*time.Millisecond)
	if len(left) != 1 {
		t.Fatalf("want the parked goroutine alone, got %d:\n%s", len(left), strings.Join(left, "\n\n"))
	}
	for _, want := range []string{"leakcheck.park(", "created by wearwild/internal/leakcheck.TestSurvivorsSeesParkedGoroutine"} {
		if !strings.Contains(left[0], want) {
			t.Errorf("survivor's stack lacks %q:\n%s", want, left[0])
		}
	}

	skip := map[string]bool{}
	for _, g := range goroutines() {
		skip[g.id] = true
	}
	if left := survivors(skip, 0); len(left) != 0 {
		t.Errorf("goroutines in skip reported:\n%s", strings.Join(left, "\n\n"))
	}

	close(release)
	if left := survivors(nil, grace); len(left) != 0 {
		t.Errorf("an exited goroutine is still reported:\n%s", strings.Join(left, "\n\n"))
	}
}
