// Liveproxy: run the real transparent logging proxy on localhost and drive
// genuine TLS and HTTP clients through it — the zero-to-capture proof of
// the measurement path. The replay harness (internal/mnet/replay) stands
// up the proxy and its local origins; the proxy extracts SNI from real
// ClientHellos (crypto/tls on the wire, our parser in the middle), logs one
// record per connection, and the records then flow through the same
// app-identification pipeline the study uses.
package main

import (
	"fmt"
	"log"
	"time"

	"wearwild/internal/gen/apps"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/replay"
	"wearwild/internal/study/appid"
	"wearwild/internal/study/sessions"
)

func main() {
	catalog := apps.Default()

	h, err := replay.NewHarness()
	if err != nil {
		log.Fatal(err)
	}

	// Drive a realistic burst: a Weather usage (app + CDN + analytics)
	// over TLS, then an HTTP fetch.
	weather, _ := catalog.ByName("Weather")
	burst := []proxylog.Record{
		{Scheme: proxylog.HTTPS, Host: weather.Hosts[0], BytesUp: 300, BytesDown: 1200},
		{Scheme: proxylog.HTTPS, Host: catalog.SharedHosts(apps.KindUtilities)[0], BytesUp: 200, BytesDown: 4000},
		{Scheme: proxylog.HTTPS, Host: catalog.SharedHosts(apps.KindAnalytics)[0], BytesUp: 400, BytesDown: 300},
		{Scheme: proxylog.HTTP, Host: weather.Hosts[1], Path: "/feed/latest", BytesUp: 150, BytesDown: 2500},
	}
	for _, rec := range burst {
		if err := h.Replay(rec); err != nil {
			log.Fatalf("%s %s: %v", rec.Scheme, rec.Host, err)
		}
	}
	// Close drains the proxy's handlers, each of which logs its record
	// before it exits, so the capture is complete once Close returns.
	h.Close()

	// The captured records enter the same pipeline as the study.
	records := h.Captured()
	fmt.Printf("captured %d records:\n", len(records))
	for _, r := range records {
		fmt.Printf("  %-5s %-28s up=%-5d down=%-5d %v\n", r.Scheme, r.Host, r.BytesUp, r.BytesDown, r.Duration.Round(time.Millisecond))
	}

	resolver := appid.NewResolver(catalog)
	usages := sessions.Sessionize(records, time.Minute)
	attributed := resolver.Attribute(usages)
	fmt.Printf("\nsessionised into %d usage(s):\n", len(attributed))
	for _, u := range attributed {
		name := "(unattributed)"
		if u.App != nil {
			name = u.App.Name
		}
		fmt.Printf("  app=%-12s tx=%d bytes=%d hosts=%v\n", name, u.Transactions(), u.Bytes(), u.Hosts())
		for _, rec := range u.Records {
			fmt.Printf("    %-28s -> %s\n", rec.Host, resolver.KindOfHost(rec.Host))
		}
	}
}
