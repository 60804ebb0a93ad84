package core

import (
	"bytes"
	"sync"
	"testing"

	"wearwild/internal/gen/sim"
	"wearwild/internal/mnet/cells"
	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/udr"
	"wearwild/internal/stream"
)

// tinyLogs is a dataset small enough to study once per fuzz input, with
// its three logs in their saved encodings: proxy binary, MME CSV, UDR CSV.
var (
	tinyOnce sync.Once
	tinyDS   *sim.Dataset
	tinyEnc  [3][]byte
	tinyErr  error
)

func tinyLogs(t testing.TB) (*sim.Dataset, [3][]byte) {
	t.Helper()
	tinyOnce.Do(func() {
		cfg := sim.SmallConfig(7)
		cfg.Population.WearableUsers = 24
		cfg.Population.OrdinaryUsers = 48
		cfg.Cells = cells.Config{UrbanSectors: 40, RuralSectors: 20}
		cfg.OrdinaryMobilitySample = 24
		cfg.Workers = 1
		if tinyDS, tinyErr = sim.Generate(cfg); tinyErr != nil {
			return
		}
		var bufs [3]bytes.Buffer
		for _, err := range []error{
			proxylog.WriteBinary(&bufs[0], tinyDS.Proxy.Records),
			mme.WriteCSV(&bufs[1], tinyDS.MME.Records),
			udr.WriteCSV(&bufs[2], tinyDS.UDR.Records),
		} {
			if err != nil {
				tinyErr = err
				return
			}
		}
		for i := range bufs {
			tinyEnc[i] = bufs[i].Bytes()
		}
	})
	if tinyErr != nil {
		t.Fatal(tinyErr)
	}
	return tinyDS, tinyEnc
}

// FuzzRunStreamReaders runs the study over stream.Readers fed the tiny
// dataset's three encodings with one of them damaged: feed picks the
// encoding, cut truncates it to that many bytes and flip inverts the byte
// at that offset (a negative or out-of-range value leaves it alone). The
// study must return Results or an error — never a panic, never both and
// never neither. CI runs the seed corpus only; mutate locally with
// go test -fuzz=FuzzRunStreamReaders ./internal/core.
func FuzzRunStreamReaders(f *testing.F) {
	_, enc := tinyLogs(f)
	f.Add(uint8(0), -1, -1) // undamaged
	for feed := range enc {
		n := len(enc[feed])
		for _, cut := range []int{0, 1, n / 3, n / 2, n - 1} {
			f.Add(uint8(feed), cut, -1)
		}
		f.Add(uint8(feed), -1, n/2)
	}
	f.Fuzz(func(t *testing.T, feed uint8, cut, flip int) {
		ds, enc := tinyLogs(t)
		in := enc
		damaged := append([]byte(nil), enc[int(feed)%3]...)
		if cut >= 0 && cut < len(damaged) {
			damaged = damaged[:cut]
		}
		if flip >= 0 && flip < len(damaged) {
			damaged[flip] ^= 0xff
		}
		in[int(feed)%3] = damaged
		src := &stream.Readers{
			ProxyBinary: bytes.NewReader(in[0]),
			MMECSV:      bytes.NewReader(in[1]),
			UDRCSV:      bytes.NewReader(in[2]),
		}
		cfg := DefaultConfig()
		cfg.Workers = 1
		res, err := RunStream(Env{Devices: ds.Devices, Topology: ds.Topology, Catalog: ds.Catalog}, src, cfg)
		if (res == nil) == (err == nil) {
			t.Fatalf("RunStream returned Results %v and error %v; want exactly one", res != nil, err)
		}
	})
}
