package appid_test

import (
	"fmt"
	"time"

	"wearwild/internal/gen/apps"
	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/simtime"
	"wearwild/internal/study/appid"
	"wearwild/internal/study/sessions"
)

// ExampleResolver_Attribute shows the paper's §3.3 timeframe correlation:
// third-party transactions (CDN, analytics) in the same usage window are
// attributed to the app whose first-party servers anchor the window.
func ExampleResolver_Attribute() {
	catalog := apps.Default()
	resolver := appid.NewResolver(catalog)

	t0 := simtime.Instant(time.Date(2018, 3, 10, 12, 0, 0, 0, time.UTC).UnixNano())
	user := subs.MustNew(1)
	dev := imei.MustNew(35332011, 1)
	rec := func(offset time.Duration, host string) proxylog.Record {
		return proxylog.Record{Time: t0.Add(offset), IMSI: user, IMEI: dev,
			Scheme: proxylog.HTTPS, Host: host, BytesUp: 100, BytesDown: 900}
	}

	records := []proxylog.Record{
		rec(0, "api.weather.app"), // first party
		rec(10*time.Second, catalog.SharedHosts(apps.KindUtilities)[0]), // CDN
		rec(20*time.Second, catalog.SharedHosts(apps.KindAnalytics)[0]), // analytics
	}
	usages := sessions.Sessionize(records, time.Minute)
	for _, u := range resolver.Attribute(usages) {
		fmt.Printf("usage of %s:\n", u.App.Name)
		for _, r := range u.Records {
			fmt.Printf("  %-25s %s\n", r.Host, resolver.KindOfHost(r.Host))
		}
	}
	// Output:
	// usage of Weather:
	//   api.weather.app           Application
	//   edge.cachefront.net       Utilities
	//   metrics.appinsight.io     Analytics
}
