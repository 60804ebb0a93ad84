package appid

import (
	"testing"
	"time"

	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"

	"wearwild/internal/gen/apps"
	"wearwild/internal/simtime"
	"wearwild/internal/study/sessions"
)

func newResolver() *Resolver { return NewResolver(apps.Default()) }

func TestAppOfHostExactAndSuffix(t *testing.T) {
	r := newResolver()
	app, ok := r.AppOfHost("api.weather.app")
	if !ok || app.Name != "Weather" {
		t.Fatalf("exact lookup = %v, %v", app, ok)
	}
	// Subdomain of a registered host resolves by suffix walk.
	app, ok = r.AppOfHost("eu1.api.weather.app")
	if !ok || app.Name != "Weather" {
		t.Fatalf("suffix lookup = %v, %v", app, ok)
	}
	if _, ok := r.AppOfHost("totally.unknown.example"); ok {
		t.Fatal("unknown host resolved")
	}
	// Suffix walk must not jump to an unrelated registrable domain.
	if _, ok := r.AppOfHost("weather.app"); ok {
		t.Fatal("bare registrable domain resolved without a rule")
	}
}

func TestKindOfHost(t *testing.T) {
	r := newResolver()
	catalog := apps.Default()
	for _, kind := range []apps.DomainKind{apps.KindUtilities, apps.KindAdvertising, apps.KindAnalytics} {
		for _, h := range catalog.SharedHosts(kind) {
			if got := r.KindOfHost(h); got != kind {
				t.Fatalf("host %s kind = %v, want %v", h, got, kind)
			}
		}
	}
	if got := r.KindOfHost("api.weather.app"); got != apps.KindApplication {
		t.Fatalf("first-party kind = %v", got)
	}
	// Heuristics for unknown hosts.
	cases := map[string]apps.DomainKind{
		"ads.randomnet.example":   apps.KindAdvertising,
		"banner.popups.example":   apps.KindAdvertising,
		"metrics.somesdk.example": apps.KindAnalytics,
		"crash.reporting.example": apps.KindAnalytics,
		"cdn.bigfiles.example":    apps.KindUtilities,
		"static.assets.example":   apps.KindUtilities,
		"www.firstparty.example":  apps.KindApplication,
		"backend.service.example": apps.KindApplication,
	}
	for host, want := range cases {
		if got := r.KindOfHost(host); got != want {
			t.Fatalf("host %s kind = %v, want %v", host, got, want)
		}
	}
}

func mkUsage(hosts ...string) sessions.Usage {
	t0 := simtime.Instant(time.Date(2018, 3, 10, 12, 0, 0, 0, time.UTC).UnixNano())
	u := sessions.Usage{
		IMSI:  subs.MustNew(1),
		IMEI:  imei.MustNew(35332011, 1),
		Start: t0,
	}
	for i, h := range hosts {
		u.Records = append(u.Records, proxylog.Record{
			Time: t0.Add(time.Duration(i*10) * time.Second),
			IMSI: u.IMSI, IMEI: u.IMEI, Scheme: proxylog.HTTPS, Host: h,
			BytesUp: 100, BytesDown: 900,
		})
	}
	if len(u.Records) > 0 {
		u.End = u.Records[len(u.Records)-1].Time
	}
	return u
}

func TestAttributeAnchorsThirdParty(t *testing.T) {
	r := newResolver()
	catalog := apps.Default()
	adHost := catalog.SharedHosts(apps.KindAdvertising)[0]
	cdnHost := catalog.SharedHosts(apps.KindUtilities)[0]

	usages := []sessions.Usage{
		mkUsage("api.weather.app", adHost, cdnHost, "push.weather.app"),
	}
	got := r.Attribute(usages)
	if len(got) != 1 {
		t.Fatalf("attributed = %d", len(got))
	}
	if got[0].App == nil || got[0].App.Name != "Weather" {
		t.Fatalf("app = %v", got[0].App)
	}
}

func TestAttributeMajorityWins(t *testing.T) {
	r := newResolver()
	// Two apps in one timeframe: the one with more first-party hits wins.
	u := mkUsage("api.weather.app", "api.facebook.app", "push.facebook.app")
	got := r.Attribute([]sessions.Usage{u})
	if got[0].App == nil || got[0].App.Name != "Facebook" {
		t.Fatalf("app = %v", got[0].App)
	}
	// Tie: first-seen app wins, deterministically.
	u2 := mkUsage("api.weather.app", "api.facebook.app")
	got2 := r.Attribute([]sessions.Usage{u2})
	if got2[0].App == nil || got2[0].App.Name != "Weather" {
		t.Fatalf("tie-break app = %v", got2[0].App)
	}
}

func TestAttributeUnanchored(t *testing.T) {
	r := newResolver()
	catalog := apps.Default()
	adHost := catalog.SharedHosts(apps.KindAdvertising)[0]
	got := r.Attribute([]sessions.Usage{mkUsage(adHost)})
	if got[0].App != nil {
		t.Fatalf("third-party-only usage attributed to %v", got[0].App)
	}
	if len(r.Attribute(nil)) != 0 {
		t.Fatal("nil usages mishandled")
	}
}

func TestKindBytes(t *testing.T) {
	r := newResolver()
	catalog := apps.Default()
	var acc [apps.NumDomainKinds]int64
	for _, rec := range []proxylog.Record{
		{Host: "api.weather.app", BytesUp: 10, BytesDown: 90},
		{Host: catalog.SharedHosts(apps.KindAnalytics)[0], BytesUp: 5, BytesDown: 5},
	} {
		acc[r.KindOfHost(rec.Host)] += rec.Bytes()
	}
	if acc[apps.KindApplication] != 100 || acc[apps.KindAnalytics] != 10 {
		t.Fatalf("acc = %v", acc)
	}
}
