package sim

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"wearwild/internal/mnet/devicedb"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/simtime"
)

func tinyConfig(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.Population.WearableUsers = 250
	cfg.Population.OrdinaryUsers = 600
	cfg.Cells.UrbanSectors = 250
	cfg.Cells.RuralSectors = 100
	cfg.OrdinaryMobilitySample = 250
	return cfg
}

func generateTiny(t testing.TB, seed uint64) *Dataset {
	t.Helper()
	ds, err := Generate(tinyConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestGenerateProducesAllLogs(t *testing.T) {
	ds := generateTiny(t, 1)
	if ds.MME.Len() == 0 || ds.Proxy.Len() == 0 || ds.UDR.Len() == 0 {
		t.Fatalf("empty logs: mme=%d proxy=%d udr=%d", ds.MME.Len(), ds.Proxy.Len(), ds.UDR.Len())
	}
	if !ds.MME.Sorted() || !ds.Proxy.Sorted() {
		t.Fatal("logs not chronological")
	}
}

func TestValidateRejects(t *testing.T) {
	cfg := tinyConfig(1)
	cfg.OrdinaryMobilitySample = -1
	if _, err := Generate(cfg); err == nil {
		t.Fatal("negative sample accepted")
	}
	cfg = tinyConfig(1)
	cfg.Population.WearableUsers = 0
	if _, err := Generate(cfg); err == nil {
		t.Fatal("invalid population accepted")
	}
}

func TestProxyOnlyInDetailWindow(t *testing.T) {
	ds := generateTiny(t, 2)
	for _, rec := range ds.Proxy.Records {
		d := simtime.DayOf(rec.Time)
		if !d.InDetailWindow() {
			t.Fatalf("proxy record on day %d outside detail window", d)
		}
	}
}

func TestMMECoversFullWindow(t *testing.T) {
	ds := generateTiny(t, 3)
	sawEarly, sawLate := false, false
	for _, rec := range ds.MME.Records {
		d := simtime.DayOf(rec.Time)
		if d < 0 || d >= simtime.StudyDays {
			t.Fatalf("MME record outside study window: day %d", d)
		}
		if d < 7 {
			sawEarly = true
		}
		if d >= simtime.StudyDays-7 {
			sawLate = true
		}
	}
	if !sawEarly || !sawLate {
		t.Fatal("MME log does not span the study window")
	}
}

func TestMMEDeviceClasses(t *testing.T) {
	ds := generateTiny(t, 4)
	wearables, phones := 0, 0
	for _, rec := range ds.MME.Records {
		m, ok := ds.Devices.Lookup(rec.IMEI)
		if !ok {
			t.Fatalf("MME IMEI %s not in device DB", rec.IMEI)
		}
		switch m.Class {
		case devicedb.WearableSIM:
			wearables++
		case devicedb.Smartphone:
			phones++
			// Phone records only exist in the detail window (mobility
			// comparison sample).
			if !simtime.DayOf(rec.Time).InDetailWindow() {
				t.Fatal("phone MME record outside detail window")
			}
		default:
			t.Fatalf("unexpected device class %v in MME log", m.Class)
		}
	}
	if wearables == 0 || phones == 0 {
		t.Fatalf("wearables=%d phones=%d: both classes must appear", wearables, phones)
	}
}

func TestUDRConsistentWithProxy(t *testing.T) {
	ds := generateTiny(t, 5)
	// For wearable devices, each weekly UDR row in the detail window must
	// exactly match the proxy log: the sweep sums the same transactions
	// into both.
	type key struct {
		imei uint64
		week simtime.Week
	}
	type sums struct{ bytes, tx int64 }
	proxyAgg := map[key]sums{}
	for _, rec := range ds.Proxy.Records {
		if !ds.Devices.IsWearable(rec.IMEI) {
			continue
		}
		k := key{uint64(rec.IMEI), simtime.DayOf(rec.Time).Week()}
		v := proxyAgg[k]
		v.bytes += rec.Bytes()
		v.tx++
		proxyAgg[k] = v
	}
	udrAgg := map[key]sums{}
	for _, rec := range ds.UDR.Records {
		if !ds.Devices.IsWearable(rec.IMEI) {
			continue
		}
		if !rec.Week.FirstDay().InDetailWindow() {
			continue
		}
		k := key{uint64(rec.IMEI), rec.Week}
		if _, dup := udrAgg[k]; dup {
			t.Fatalf("week %d imei %d has two UDR rows", k.week, k.imei)
		}
		udrAgg[k] = sums{rec.Bytes, rec.Transactions}
	}
	if len(proxyAgg) == 0 {
		t.Fatal("no wearable proxy traffic")
	}
	for k, want := range proxyAgg {
		got := udrAgg[k]
		if got != want {
			t.Fatalf("week %d imei %d: udr %+v != proxy %+v", k.week, k.imei, got, want)
		}
	}
	for k := range udrAgg {
		if _, ok := proxyAgg[k]; !ok {
			t.Fatalf("udr entry %+v has no proxy counterpart", k)
		}
	}
}

// The sweep stamps each wearable week's UDR row with the owner's identity
// and emits it only for weeks with traffic, in the detail window and
// outside it.
func TestWearableUDRIdentity(t *testing.T) {
	ds := generateTiny(t, 5)
	owner := map[uint64]subs.IMSI{}
	for _, rec := range ds.Proxy.Records {
		if !ds.Devices.IsWearable(rec.IMEI) {
			continue
		}
		if prev, ok := owner[uint64(rec.IMEI)]; ok && prev != rec.IMSI {
			t.Fatalf("imei %d proxied for imsi %d and %d", rec.IMEI, prev, rec.IMSI)
		}
		owner[uint64(rec.IMEI)] = rec.IMSI
	}
	rows, outside := 0, 0
	for _, rec := range ds.UDR.Records {
		if !ds.Devices.IsWearable(rec.IMEI) {
			continue
		}
		rows++
		if !rec.Week.FirstDay().InDetailWindow() {
			outside++
		}
		if err := rec.Validate(); err != nil {
			t.Fatal(err)
		}
		if rec.Transactions == 0 || rec.Week >= simtime.StudyWeeks {
			t.Fatalf("imei %d: empty or out-of-study row %+v", rec.IMEI, rec)
		}
		want, ok := owner[uint64(rec.IMEI)]
		if !ok {
			owner[uint64(rec.IMEI)] = rec.IMSI
		} else if rec.IMSI != want {
			t.Fatalf("imei %d week %d: udr imsi %d, owner %d", rec.IMEI, rec.Week, rec.IMSI, want)
		}
	}
	if rows == 0 || outside == 0 {
		t.Fatalf("wearable udr rows=%d, outside the detail window=%d: both must be non-zero", rows, outside)
	}
}

func TestDeterminism(t *testing.T) {
	a := generateTiny(t, 7)
	b := generateTiny(t, 7)
	if a.MME.Len() != b.MME.Len() || a.Proxy.Len() != b.Proxy.Len() || a.UDR.Len() != b.UDR.Len() {
		t.Fatal("log sizes differ across identical configs")
	}
	for i := range a.Proxy.Records {
		if a.Proxy.Records[i] != b.Proxy.Records[i] {
			t.Fatalf("proxy record %d differs", i)
		}
	}
	for i := range a.UDR.Records {
		if a.UDR.Records[i] != b.UDR.Records[i] {
			t.Fatalf("udr record %d differs", i)
		}
	}
	c := generateTiny(t, 8)
	if c.Proxy.Len() == a.Proxy.Len() && c.MME.Len() == a.MME.Len() {
		// Lengths could collide, but identical lengths across all three
		// logs under a different seed would be suspicious.
		if c.UDR.Len() == a.UDR.Len() && c.Proxy.Records[0] == a.Proxy.Records[0] {
			t.Fatal("different seeds produced identical output")
		}
	}
}

// TestWorkersInvariance: any worker count yields the identical dataset.
func TestWorkersInvariance(t *testing.T) {
	mk := func(workers int) *Dataset {
		cfg := tinyConfig(21)
		cfg.Workers = workers
		ds, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	serial := mk(1)
	parallel := mk(8)
	if serial.MME.Len() != parallel.MME.Len() ||
		serial.Proxy.Len() != parallel.Proxy.Len() ||
		serial.UDR.Len() != parallel.UDR.Len() {
		t.Fatalf("log sizes differ: %d/%d, %d/%d, %d/%d",
			serial.MME.Len(), parallel.MME.Len(),
			serial.Proxy.Len(), parallel.Proxy.Len(),
			serial.UDR.Len(), parallel.UDR.Len())
	}
	for i := range serial.Proxy.Records {
		if serial.Proxy.Records[i] != parallel.Proxy.Records[i] {
			t.Fatalf("proxy record %d differs across worker counts", i)
		}
	}
	for i := range serial.MME.Records {
		if serial.MME.Records[i] != parallel.MME.Records[i] {
			t.Fatalf("MME record %d differs across worker counts", i)
		}
	}
	for i := range serial.UDR.Records {
		if serial.UDR.Records[i] != parallel.UDR.Records[i] {
			t.Fatalf("UDR record %d differs across worker counts", i)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ds := generateTiny(t, 9)
	dir := t.TempDir()
	if err := ds.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.MME.Len() != ds.MME.Len() || back.Proxy.Len() != ds.Proxy.Len() || back.UDR.Len() != ds.UDR.Len() {
		t.Fatal("log sizes differ after reload")
	}
	for i, want := range ds.Proxy.Records {
		if got := back.Proxy.Records[i]; got != want {
			t.Fatalf("proxy record %d = %+v after reload, want %+v", i, got, want)
		}
	}
	for i, want := range ds.UDR.Records {
		if got := back.UDR.Records[i]; got != want {
			t.Fatalf("UDR record %d = %+v after reload, want %+v", i, got, want)
		}
	}
	for i, want := range ds.MME.Records {
		// The MME CSV codec writes whole seconds and drops the fraction
		// (ROADMAP item 1's open sub-second bug); the fix must make this
		// an exact comparison.
		want.Time, _ = simtime.FromUnix(want.Time.Unix(), time.Second)
		if got := back.MME.Records[i]; got != want {
			t.Fatalf("MME record %d = %+v after reload, want %+v", i, got, want)
		}
	}
	// Substrate rebuilt identically: same population identities.
	if len(back.Population.Users) != len(ds.Population.Users) {
		t.Fatal("population size differs after reload")
	}
	for i := range ds.Population.Users {
		if ds.Population.Users[i].IMSI != back.Population.Users[i].IMSI ||
			ds.Population.Users[i].WearableIMEI != back.Population.Users[i].WearableIMEI {
			t.Fatalf("population user %d differs after reload", i)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(t.TempDir()); err == nil {
		t.Fatal("empty dir accepted")
	}
}

// TestLoadRejectsCorruption: every damaged artefact must fail loudly, not
// yield a silently wrong dataset.
func TestLoadRejectsCorruption(t *testing.T) {
	ds := generateTiny(t, 13)
	corrupt := func(name string, mutate func(path string)) {
		t.Helper()
		dir := t.TempDir()
		if err := ds.Save(dir); err != nil {
			t.Fatal(err)
		}
		mutate(filepath.Join(dir, name))
		if _, err := Load(dir); err == nil {
			t.Fatalf("corrupted %s accepted", name)
		}
	}
	truncate := func(path string) {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, info.Size()/2); err != nil {
			t.Fatal(err)
		}
	}
	scribble := func(path string) {
		if err := os.WriteFile(path, []byte("not a log"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	corrupt("proxy.bin.gz", truncate)
	corrupt("mme.csv.gz", scribble)
	corrupt("udr.csv.gz", scribble)
	corrupt("meta.json", scribble)
	corrupt("meta.json", func(path string) {
		// Valid JSON, invalid config.
		if err := os.WriteFile(path, []byte(`{"Seed":1}`), 0o644); err != nil {
			t.Fatal(err)
		}
	})
	corrupt("proxy.bin.gz", func(path string) {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	})
}
