// Command wearreplay replays a generated proxy log through the real
// transparent proxy as live TCP connections — a genuine TLS handshake (the
// record's host as SNI) or a cleartext HTTP request per record — and
// reports capture fidelity: whether the proxy would have logged the very
// records the synthetic ISP emitted.
//
// Usage:
//
//	wearreplay [-data dataset/] [-seed 42] [-n 200]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"wearwild"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/replay"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wearreplay: ")

	var (
		data = flag.String("data", "", "dataset directory from wearsim (optional)")
		seed = flag.Uint64("seed", 42, "seed when generating in memory")
		n    = flag.Int("n", 200, "number of records to replay")
	)
	flag.Parse()

	var (
		ds  *wearwild.Dataset
		err error
	)
	if *data != "" {
		ds, err = wearwild.Load(*data)
	} else {
		ds, err = wearwild.Generate(wearwild.SmallConfig(*seed))
	}
	if err != nil {
		log.Fatal(err)
	}

	// Replay the wearable transactions — the traffic the paper's proxy
	// actually measured.
	var sent []proxylog.Record
	for _, rec := range ds.Proxy.Records {
		if !ds.Devices.IsWearable(rec.IMEI) {
			continue
		}
		sent = append(sent, rec)
		if len(sent) == *n {
			break
		}
	}
	if len(sent) == 0 {
		log.Fatal("no wearable records in the log")
	}

	h, err := replay.NewHarness()
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	failed := 0
	for i, rec := range sent {
		if err := h.Replay(rec); err != nil {
			failed++
			log.Printf("record %d (%s %s): %v", i, rec.Scheme, rec.Host, err)
		}
	}
	elapsed := time.Since(start)
	// Close drains the proxy's handlers, each of which logs its record
	// before it exits, so the capture is complete once Close returns.
	h.Close()

	f := replay.Verify(sent, h.Captured())
	fmt.Printf("replayed %d records in %v (%.0f conn/s), %d failed\n",
		f.Sent, elapsed.Round(time.Millisecond), float64(f.Sent)/elapsed.Seconds(), failed)
	fmt.Printf("captured:        %d\n", f.Captured)
	fmt.Printf("host matches:    %d (%.1f%%)\n", f.HostMatches, 100*float64(f.HostMatches)/float64(f.Sent))
	fmt.Printf("scheme matches:  %d\n", f.SchemeMatches)
	fmt.Printf("downlink delta:  %+.1f%% (TLS/HTTP framing overhead)\n", 100*f.MeanDownDelta)
	if f.HostMatches == f.Sent && failed == 0 {
		fmt.Println("capture fidelity: OK — the live proxy reproduces the synthetic log")
	}
}
