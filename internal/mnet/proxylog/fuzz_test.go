package proxylog

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
	"testing/quick"

	"wearwild/internal/simtime"
)

// Decoder robustness: arbitrary bytes must never panic and must either
// fail cleanly or produce valid records.
func TestBinaryDecoderGarbageProperty(t *testing.T) {
	f := func(data []byte) bool {
		recs, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return true
		}
		for _, r := range recs {
			if r.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Flipping any single byte of a valid stream must never panic, and if it
// still decodes, the record count cannot explode.
func TestBinaryDecoderBitflipProperty(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, recs); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	for pos := 0; pos < len(orig); pos++ {
		for _, delta := range []byte{0x01, 0x80, 0xFF} {
			mut := append([]byte(nil), orig...)
			mut[pos] ^= delta
			got, err := ReadBinary(bytes.NewReader(mut))
			if err != nil {
				continue
			}
			if len(got) > len(recs)*4 {
				t.Fatalf("bitflip at %d produced %d records from %d", pos, len(got), len(recs))
			}
		}
	}
}

// FuzzReadBinary is the native fuzz entry for the binary decoder: on any
// input it must never panic, never grow the host dictionary past
// MaxHosts, and return only valid records, which must survive a round
// trip. CI runs it in seed-corpus mode (go test -run='^Fuzz' with no
// -fuzz flag); local fuzzing explores further with
// go test -fuzz=FuzzReadBinary ./internal/mnet/proxylog. The seeds
// include a truncated adversarial opDef flood.
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, sampleRecords()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte(binMagic))
	f.Add(buf.Bytes()[:len(buf.Bytes())/2])
	f.Add(adversarialDefs(64))
	f.Add([]byte(binMagic + "\x02"))
	var valid bytes.Buffer
	rec := Record{Host: "example.com", Scheme: HTTPS, BytesUp: 10, BytesDown: 20}
	if err := WriteBinary(&valid, []Record{rec, rec}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(pastInstantStream(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(bytes.NewReader(data))
		var recs []Record
		for {
			rec, err := dec.Decode()
			if len(dec.hosts) > MaxHosts {
				t.Fatalf("dictionary grew to %d entries", len(dec.hosts))
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				return
			}
			if err := rec.Validate(); err != nil {
				t.Fatalf("decoder returned an invalid record: %v", err)
			}
			recs = append(recs, rec)
		}
		// Anything the decoder accepts must survive a round trip.
		var out bytes.Buffer
		if err := WriteBinary(&out, recs); err != nil {
			t.Fatalf("decoded records failed to re-encode: %v", err)
		}
		back, err := ReadBinary(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded stream failed to decode: %v", err)
		}
		if len(back) != len(recs) {
			t.Fatalf("round trip changed record count: %d != %d", len(back), len(recs))
		}
	})
}

// pastInstantStream is a stream of two records: one at the last
// millisecond an Instant holds, then one whose time delta repeats the
// first, so the decoder's running sum of milliseconds passes the range.
func pastInstantStream(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	last := Record{Time: simtime.Instant(math.MaxInt64), Host: "example.com", Scheme: HTTPS}
	if err := WriteBinary(&buf, []Record{last}); err != nil {
		t.Fatal(err)
	}
	// The record follows the header and the host's opDef.
	rec := buf.Bytes()[len(binMagic)+1+2+len(last.Host):]
	if rec[0] != opRec {
		t.Fatalf("record starts with %#x, not opRec", rec[0])
	}
	return append(buf.Bytes(), rec...)
}

// TestDecoderRejectsTimePastInstant: the first record decodes at the
// range's last millisecond, and the second fails with simtime.ErrRange
// instead of wrapping.
func TestDecoderRejectsTimePastInstant(t *testing.T) {
	dec := NewDecoder(bytes.NewReader(pastInstantStream(t)))
	if rec, err := dec.Decode(); err != nil || rec.Time.UnixMilli() != math.MaxInt64/int64(1e6) {
		t.Fatalf("first record: %+v, %v", rec, err)
	}
	if rec, err := dec.Decode(); !errors.Is(err, simtime.ErrRange) {
		t.Fatalf("second record: %+v, %v; want simtime.ErrRange", rec, err)
	}
}
