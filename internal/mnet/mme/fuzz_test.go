package mme

import (
	"bytes"
	"testing"
	"testing/quick"

	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/subs"
)

// The CSV reader must reject malformed rows cleanly for arbitrary input —
// no panics, no invalid records.
func TestReadCSVGarbageProperty(t *testing.T) {
	f := func(data []byte) bool {
		recs, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return true
		}
		for _, r := range recs {
			// Whatever parses must round-trip.
			var buf bytes.Buffer
			if err := WriteCSV(&buf, []Record{r}); err != nil {
				return false
			}
			back, err := ReadCSV(&buf)
			if err != nil || len(back) != 1 || back[0] != r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzReadCSV is the native fuzz entry for the MME log reader. CI runs
// it in seed-corpus mode (go test -run='^Fuzz' with no -fuzz flag);
// local fuzzing explores further with
// go test -fuzz=FuzzReadCSV ./internal/mnet/mme.
func FuzzReadCSV(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleRecords()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("time_ms,imsi,imei,event,sector\n"))
	// One second past the largest count of seconds an Instant holds.
	f.Add([]byte("ts_unix,imsi,imei,sector,event\n9223372037," + subs.MustNew(1).String() + "," +
		imei.MustNew(35332011, 1).String() + ",5,attach\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything the reader accepts must survive a round trip intact.
		var out bytes.Buffer
		if err := WriteCSV(&out, recs); err != nil {
			t.Fatalf("accepted records failed to re-encode: %v", err)
		}
		back, err := ReadCSV(&out)
		if err != nil {
			t.Fatalf("re-encoded stream failed to parse: %v", err)
		}
		if len(back) != len(recs) {
			t.Fatalf("round trip changed record count: %d != %d", len(back), len(recs))
		}
	})
}

// Flipping bytes in a valid CSV stream must never panic the reader.
func TestReadCSVBitflip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	for pos := 0; pos < len(orig); pos += 3 {
		mut := append([]byte(nil), orig...)
		mut[pos] ^= 0x5A
		_, _ = ReadCSV(bytes.NewReader(mut)) // must not panic
	}
}
