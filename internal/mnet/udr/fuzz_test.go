package udr

import (
	"bytes"
	"testing"
)

// FuzzReadCSV is the native fuzz entry for the UDR log reader. CI runs
// it in seed-corpus mode (go test -run='^Fuzz' with no -fuzz flag);
// local fuzzing explores further with
// go test -fuzz=FuzzReadCSV ./internal/mnet/udr.
func FuzzReadCSV(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleRecords()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("week,imsi,imei,bytes,tx\r\n\r\n-0,214070000000001,490154203237518,+5,0005\r"))
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
		for i := range recs {
			if back[i] != recs[i] {
				t.Fatalf("record %d: %+v != %+v", i, back[i], recs[i])
			}
		}
	})
}
