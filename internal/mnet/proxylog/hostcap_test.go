package proxylog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
)

// adversarialDefs builds a syntactically valid binary stream that defines
// n hosts without ever emitting a record — the opDef flood that used to
// grow the decoder dictionary without bound.
func adversarialDefs(n int) []byte {
	var buf bytes.Buffer
	buf.WriteString(binMagic)
	buf.WriteByte(binVersion)
	host := []byte("h0000000")
	var scratch [binary.MaxVarintLen64]byte
	for i := 0; i < n; i++ {
		copy(host[1:], fmt.Sprintf("%07d", i))
		buf.WriteByte(opDef)
		buf.Write(scratch[:binary.PutUvarint(scratch[:], uint64(len(host)))])
		buf.Write(host)
	}
	return buf.Bytes()
}

// TestDecoderHostDictLimit is the regression test for the opDef-flood
// OOM: the decoder must fail with the typed error at the cap instead of
// interning hosts forever.
func TestDecoderHostDictLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a MaxHosts-sized stream")
	}
	dec := NewDecoder(bytes.NewReader(adversarialDefs(MaxHosts + 10)))
	_, err := dec.Decode()
	if err == nil || err == io.EOF {
		t.Fatalf("decoder accepted %d host defs: err=%v", MaxHosts+10, err)
	}
	if !errors.Is(err, ErrHostDictLimit) {
		t.Fatalf("want ErrHostDictLimit, got %v", err)
	}
	if len(dec.hosts) > MaxHosts {
		t.Fatalf("dictionary grew to %d entries past the cap", len(dec.hosts))
	}
}

// TestEncoderHostDictLimit pins the symmetric write-side cap, so the
// encoder can never produce a stream the decoder refuses.
func TestEncoderHostDictLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("encodes MaxHosts distinct hosts")
	}
	enc := NewEncoder(io.Discard)
	rec := Record{Scheme: HTTPS, BytesUp: 1, BytesDown: 1}
	for i := 0; i < MaxHosts; i++ {
		rec.Host = fmt.Sprintf("h%07d", i)
		if err := enc.Encode(rec); err != nil {
			t.Fatalf("host %d under the cap rejected: %v", i, err)
		}
	}
	rec.Host = "one-host-too-many"
	err := enc.Encode(rec)
	if !errors.Is(err, ErrHostDictLimit) {
		t.Fatalf("want ErrHostDictLimit, got %v", err)
	}
	// Re-encoding an already-interned host still works at the cap.
	rec.Host = "h0000000"
	if err := enc.Encode(rec); err != nil {
		t.Fatalf("known host rejected at the cap: %v", err)
	}
}
