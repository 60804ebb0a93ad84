package replay

import (
	"testing"
	"time"

	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/simtime"
)

func sampleRecords() []proxylog.Record {
	t0 := simtime.Instant(time.Date(2018, 3, 20, 10, 0, 0, 0, time.UTC).UnixNano())
	mk := func(scheme proxylog.Scheme, host, path string, up, down int64) proxylog.Record {
		return proxylog.Record{
			Time: t0, IMSI: subs.MustNew(1), IMEI: imei.MustNew(35332011, 1),
			Scheme: scheme, Host: host, Path: path,
			BytesUp: up, BytesDown: down, Duration: 100 * time.Millisecond,
		}
	}
	return []proxylog.Record{
		mk(proxylog.HTTPS, "api.weather.app", "", 400, 2800),
		mk(proxylog.HTTPS, "push.deezer.app", "", 900, 52000),
		mk(proxylog.HTTP, "cdn.example.net", "/assets/x.png", 250, 9000),
		mk(proxylog.HTTPS, "metrics.appinsight.io", "", 300, 1200),
	}
}

func TestReplayFidelity(t *testing.T) {
	h, err := NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	sent := sampleRecords()
	for _, rec := range sent {
		if err := h.Replay(rec); err != nil {
			t.Fatalf("replay %s %s: %v", rec.Scheme, rec.Host, err)
		}
	}

	// Close drains the proxy's handlers, each of which logs before it
	// exits: the capture is complete the moment Close returns.
	h.Close()
	captured := h.Captured()
	if len(captured) != len(sent) {
		t.Fatalf("captured %d of %d right after Close", len(captured), len(sent))
	}

	f := Verify(sent, captured)
	if f.HostMatches != len(sent) {
		t.Fatalf("host matches = %d of %d", f.HostMatches, len(sent))
	}
	if f.SchemeMatches != len(sent) {
		t.Fatalf("scheme matches = %d of %d", f.SchemeMatches, len(sent))
	}
	// TLS framing and HTTP headers inflate the byte count, but it must
	// stay within a sane envelope of the requested volume.
	if f.MeanDownDelta < -0.05 || f.MeanDownDelta > 0.6 {
		t.Fatalf("mean downlink delta = %.3f", f.MeanDownDelta)
	}

	// The captured records must be structurally valid proxy-log records.
	for _, rec := range captured {
		if err := rec.Validate(); err != nil {
			t.Fatal(err)
		}
		if rec.BytesUp <= 0 || rec.BytesDown <= 0 {
			t.Fatalf("captured empty volumes: %+v", rec)
		}
	}
}

func TestVerifyMisses(t *testing.T) {
	sent := sampleRecords()
	f := Verify(sent, nil)
	if f.HostMatches != 0 || f.Captured != 0 || f.Sent != len(sent) {
		t.Fatalf("fidelity = %+v", f)
	}
	// Captured with a different host does not match.
	wrong := sampleRecords()[:1]
	wrong[0].Host = "other.example"
	f = Verify(sampleRecords()[:1], wrong)
	if f.HostMatches != 0 {
		t.Fatal("mismatched host counted")
	}
}

func TestReplayRejectsUnknownScheme(t *testing.T) {
	h, err := NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	bad := sampleRecords()[0]
	bad.Scheme = proxylog.Scheme(9)
	if err := h.Replay(bad); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}
