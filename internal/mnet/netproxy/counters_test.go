package netproxy

import (
	"sync"
	"testing"

	"wearwild/internal/mnet/proxylog"
)

// TestCountersConcurrentSnapshot pins the snapshot contract: Counters
// must produce a torn-read-free snapshot while the hot path is mutating
// the accounting. The typed atomic.Uint64 fields make a plain read
// inexpressible; under go test -race a counter bumped atomically but
// read plainly fails here as a data race. The test also asserts
// monotonicity of repeated snapshots against a concurrent writer.
func TestCountersConcurrentSnapshot(t *testing.T) {
	var p Proxy
	const rounds = 2000

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			p.ctr.accepted.Add(1)
			p.ctr.active.Add(1)
			p.ctr.relayed.Add(1)
			p.ctr.bytesUp.Add(64)
			p.ctr.bytesDn.Add(128)
			p.drop(proxylog.DropIdle)
			p.ctr.active.Add(^uint64(0))
		}
	}()

	var last Counters
	for i := 0; i < rounds; i++ {
		c := p.Counters()
		if c.Accepted < last.Accepted || c.Relayed < last.Relayed ||
			c.IdleTimeout < last.IdleTimeout ||
			c.BytesUp < last.BytesUp || c.BytesDown < last.BytesDown {
			t.Fatalf("snapshot went backwards: %+v after %+v", c, last)
		}
		last = c
	}
	wg.Wait()

	final := p.Counters()
	if final.Accepted != rounds || final.Relayed != rounds || final.IdleTimeout != rounds {
		t.Fatalf("final counts = %d/%d/%d, want %d each",
			final.Accepted, final.Relayed, final.IdleTimeout, rounds)
	}
	if final.Active != 0 {
		t.Fatalf("Active = %d after balanced inc/dec, want 0", final.Active)
	}
	if final.BytesUp != rounds*64 || final.BytesDown != rounds*128 {
		t.Fatalf("bytes = %d up / %d down, want %d / %d",
			final.BytesUp, final.BytesDown, rounds*64, rounds*128)
	}
}
