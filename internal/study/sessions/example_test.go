package sessions_test

import (
	"fmt"
	"time"

	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/simtime"
	"wearwild/internal/study/sessions"
)

// ExampleSessionize reconstructs usages from raw transactions: bursts less
// than a minute apart form one usage, the paper's §5.1 definition.
func ExampleSessionize() {
	t0 := simtime.Instant(time.Date(2018, 3, 10, 9, 0, 0, 0, time.UTC).UnixNano())
	user := subs.MustNew(1)
	dev := imei.MustNew(35332011, 1)
	rec := func(offset time.Duration, host string) proxylog.Record {
		return proxylog.Record{
			Time: t0.Add(offset), IMSI: user, IMEI: dev,
			Scheme: proxylog.HTTPS, Host: host, BytesUp: 300, BytesDown: 2700,
		}
	}

	records := []proxylog.Record{
		rec(0, "api.weather.app"),
		rec(20*time.Second, "edge.cachefront.net"),
		rec(45*time.Second, "api.weather.app"),
		// Five minutes of silence: a new usage begins.
		rec(5*time.Minute, "api.whatsapp.app"),
		rec(5*time.Minute+30*time.Second, "api.whatsapp.app"),
	}

	for i, u := range sessions.Sessionize(records, time.Minute) {
		fmt.Printf("usage %d: %d transactions, %d bytes, hosts %v\n",
			i+1, u.Transactions(), u.Bytes(), u.Hosts())
	}
	// Output:
	// usage 1: 3 transactions, 9000 bytes, hosts [api.weather.app edge.cachefront.net]
	// usage 2: 2 transactions, 6000 bytes, hosts [api.whatsapp.app]
}
