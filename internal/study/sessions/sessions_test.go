package sessions

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"wearwild/internal/gen/sim"
	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/sortx"
)

var (
	alice = subs.MustNew(1)
	bob   = subs.MustNew(2)
	dev1  = imei.MustNew(35332011, 1)
	dev2  = imei.MustNew(35332011, 2)
	t0    = time.Date(2018, 3, 10, 9, 0, 0, 0, time.UTC)
)

func rec(user subs.IMSI, dev imei.IMEI, at time.Time, host string, bytes int64) proxylog.Record {
	return proxylog.Record{
		Time: at, IMSI: user, IMEI: dev, Scheme: proxylog.HTTPS,
		Host: host, BytesUp: bytes / 4, BytesDown: bytes - bytes/4,
	}
}

func TestSessionizeSplitsOnGap(t *testing.T) {
	records := []proxylog.Record{
		rec(alice, dev1, t0, "a.example", 1000),
		rec(alice, dev1, t0.Add(20*time.Second), "b.example", 2000),
		rec(alice, dev1, t0.Add(50*time.Second), "a.example", 500),
		// 70s gap: new usage (>= 1 minute apart).
		rec(alice, dev1, t0.Add(2*time.Minute), "a.example", 700),
	}
	usages := Sessionize(records, 0)
	if len(usages) != 2 {
		t.Fatalf("usages = %d, want 2", len(usages))
	}
	if usages[0].Transactions() != 3 || usages[1].Transactions() != 1 {
		t.Fatalf("tx counts = %d, %d", usages[0].Transactions(), usages[1].Transactions())
	}
	if usages[0].Bytes() != 3500 {
		t.Fatalf("bytes = %d", usages[0].Bytes())
	}
	if !usages[0].Start.Equal(t0) || !usages[0].End.Equal(t0.Add(50*time.Second)) {
		t.Fatal("usage bounds wrong")
	}
	hosts := usages[0].Hosts()
	if len(hosts) != 2 || hosts[0] != "a.example" || hosts[1] != "b.example" {
		t.Fatalf("hosts = %v", hosts)
	}
}

func TestExactGapBoundary(t *testing.T) {
	records := []proxylog.Record{
		rec(alice, dev1, t0, "a.example", 100),
		rec(alice, dev1, t0.Add(time.Minute), "a.example", 100),                // exactly 1 min: new usage
		rec(alice, dev1, t0.Add(time.Minute+59*time.Second), "a.example", 100), // 59s later: same usage
	}
	usages := Sessionize(records, time.Minute)
	if len(usages) != 2 {
		t.Fatalf("usages = %d, want 2 (gap >= threshold splits)", len(usages))
	}
	if usages[1].Transactions() != 2 {
		t.Fatalf("second usage tx = %d", usages[1].Transactions())
	}
}

func TestSeparatesUsersAndDevices(t *testing.T) {
	records := []proxylog.Record{
		rec(alice, dev1, t0, "a.example", 100),
		rec(alice, dev2, t0.Add(5*time.Second), "a.example", 100),
		rec(bob, dev1, t0.Add(10*time.Second), "a.example", 100),
	}
	usages := Sessionize(records, 0)
	if len(usages) != 3 {
		t.Fatalf("usages = %d, want 3 (per user+device)", len(usages))
	}
}

func TestUnsortedInput(t *testing.T) {
	records := []proxylog.Record{
		rec(alice, dev1, t0.Add(30*time.Second), "b.example", 100),
		rec(alice, dev1, t0, "a.example", 100),
		rec(alice, dev1, t0.Add(3*time.Minute), "c.example", 100),
	}
	usages := Sessionize(records, 0)
	if len(usages) != 2 {
		t.Fatalf("usages = %d", len(usages))
	}
	if usages[0].Records[0].Host != "a.example" {
		t.Fatal("records not re-sorted")
	}
}

func TestEmptyAndSingle(t *testing.T) {
	if got := Sessionize(nil, 0); len(got) != 0 {
		t.Fatal("empty input produced usages")
	}
	one := Sessionize([]proxylog.Record{rec(alice, dev1, t0, "a.example", 10)}, 0)
	if len(one) != 1 || one[0].Transactions() != 1 {
		t.Fatal("single record mishandled")
	}
	if !one[0].Start.Equal(one[0].End) {
		t.Fatal("single-record usage bounds wrong")
	}
}

func TestOutputDeterministicallyOrdered(t *testing.T) {
	records := []proxylog.Record{
		rec(bob, dev1, t0, "x.example", 1),
		rec(alice, dev1, t0, "y.example", 1),
		rec(alice, dev2, t0, "z.example", 1),
	}
	usages := Sessionize(records, 0)
	if len(usages) != 3 {
		t.Fatalf("usages = %d", len(usages))
	}
	if usages[0].IMSI != alice || usages[0].IMEI != dev1 {
		t.Fatal("tie-break order wrong")
	}
	if usages[2].IMSI != bob {
		t.Fatal("user order wrong")
	}
}

// Property: sessionization conserves transactions and bytes, every usage is
// internally dense (< gap) and usages of the same device are separated by
// >= gap; and the usages equal the map-based reference's.
func TestSessionizeInvariants(t *testing.T) {
	f := func(offsets []uint16, twoDevices bool) bool {
		var records []proxylog.Record
		cur := t0
		for i, o := range offsets {
			cur = cur.Add(time.Duration(o%200) * time.Second)
			dev := dev1
			if twoDevices && i%2 == 1 {
				dev = dev2
			}
			records = append(records, rec(alice, dev, cur, "h.example", int64(o)+1))
		}
		gap := time.Minute
		usages := Sessionize(records, gap)

		totalTx := 0
		var totalBytes int64
		for _, u := range usages {
			totalTx += u.Transactions()
			totalBytes += u.Bytes()
			for i := 1; i < len(u.Records); i++ {
				d := u.Records[i].Time.Sub(u.Records[i-1].Time)
				if d < 0 || d >= gap {
					return false
				}
			}
		}
		var wantBytes int64
		for _, r := range records {
			wantBytes += r.Bytes()
		}
		return totalTx == len(records) && totalBytes == wantBytes &&
			reflect.DeepEqual(usages, sessionizeRef(records, gap))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// sessionizeRef is the map-based Sessionize that Scratch.Append replaced:
// records grouped per device in a map, each group stably time-sorted and
// split, the usages then sorted by start. It is the reference Append must
// match.
func sessionizeRef(records []proxylog.Record, gap time.Duration) []Usage {
	type devKey struct {
		user subs.IMSI
		dev  imei.IMEI
	}
	byDev := make(map[devKey][]proxylog.Record)
	for _, r := range records {
		k := devKey{r.IMSI, r.IMEI}
		byDev[k] = append(byDev[k], r)
	}
	var out []Usage
	for k, recs := range byDev {
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time.Before(recs[j].Time) })
		start := 0
		for i := 1; i <= len(recs); i++ {
			if i == len(recs) || recs[i].Time.Sub(recs[i-1].Time) >= gap {
				chunk := recs[start:i]
				out = append(out, Usage{IMSI: k.user, IMEI: k.dev, Start: chunk[0].Time, End: chunk[len(chunk)-1].Time, Records: chunk})
				start = i
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		if a.IMSI != b.IMSI {
			return a.IMSI < b.IMSI
		}
		return a.IMEI < b.IMEI
	})
	return out
}

// TestScratchMatchesSessionize sessionises every subscriber of
// SmallConfig(42), handset and wearable records together, through one
// Scratch and one output slice reused across all of them, so state left
// over from one subscriber shows in the next. Each subscriber's usages
// must equal the one-shot Sessionize and the map-based reference.
func TestScratchMatchesSessionize(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a full small dataset")
	}
	ds, err := sim.Generate(sim.SmallConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	byUser := ds.Proxy.ByUser()
	var s Scratch
	var usages []Usage
	for _, user := range sortx.Keys(byUser) {
		recs := byUser[user]
		usages = s.Append(usages[:0], recs, time.Minute)
		if want := Sessionize(recs, time.Minute); !reflect.DeepEqual(usages, want) {
			t.Fatalf("user %d: scratch usages differ from one-shot Sessionize", user)
		}
		if want := sessionizeRef(recs, time.Minute); !reflect.DeepEqual(usages, want) {
			t.Fatalf("user %d: scratch usages differ from the map-based reference", user)
		}
	}
}
