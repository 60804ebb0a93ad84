package proxylog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/simtime"
)

// refDecode is the binary decoder as it was before it read records from
// its buffered window: every varint through binary.ReadUvarint, one
// byte-reader call per byte.
func refDecode(r io.Reader) ([]Record, error) {
	br := bufio.NewReader(r)
	var magic [5]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("proxylog: reading binary header: %w", err)
	}
	if string(magic[:4]) != binMagic {
		return nil, fmt.Errorf("proxylog: bad magic %q", magic[:4])
	}
	if magic[4] == 0 || magic[4] > binVersion {
		return nil, fmt.Errorf("proxylog: unsupported version %d", magic[4])
	}
	version := magic[4]
	var hosts []string
	var lastMs int64
	var out []Record
	readString := func(n uint64) (string, error) {
		buf := make([]byte, n)
		_, err := io.ReadFull(br, buf)
		return string(buf), err
	}
	uv := func(what string) (uint64, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("proxylog: %s: %w", what, err)
		}
		return v, nil
	}
	for {
		op, err := br.ReadByte()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		switch op {
		case opDef:
			n, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("proxylog: host def: %w", err)
			}
			if n > 1<<16 {
				return nil, fmt.Errorf("proxylog: host length %d implausible", n)
			}
			if len(hosts) >= MaxHosts {
				return nil, fmt.Errorf("proxylog: %w (%d hosts)", ErrHostDictLimit, len(hosts))
			}
			host, err := readString(n)
			if err != nil {
				return nil, fmt.Errorf("proxylog: host def: %w", err)
			}
			hosts = append(hosts, host)
			continue
		case opRec:
		default:
			return nil, fmt.Errorf("proxylog: unknown opcode %#x", op)
		}
		delta, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("proxylog: time delta: %w", err)
		}
		lastMs += delta
		imsiRaw, err := uv("imsi")
		if err != nil {
			return nil, err
		}
		imeiRaw, err := uv("imei")
		if err != nil {
			return nil, err
		}
		scheme, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("proxylog: scheme: %w", err)
		}
		if scheme > uint8(HTTPS) {
			return nil, fmt.Errorf("proxylog: invalid scheme byte %d", scheme)
		}
		hostID, err := uv("host id")
		if err != nil {
			return nil, err
		}
		if hostID >= uint64(len(hosts)) {
			return nil, fmt.Errorf("proxylog: host id %d not defined", hostID)
		}
		pathLen, err := uv("path length")
		if err != nil {
			return nil, err
		}
		if pathLen > 1<<16 {
			return nil, fmt.Errorf("proxylog: path length %d implausible", pathLen)
		}
		var path string
		if pathLen > 0 {
			if path, err = readString(pathLen); err != nil {
				return nil, fmt.Errorf("proxylog: path: %w", err)
			}
		}
		up, err := uv("up bytes")
		if err != nil {
			return nil, err
		}
		down, err := uv("down bytes")
		if err != nil {
			return nil, err
		}
		durMs, err := uv("duration")
		if err != nil {
			return nil, err
		}
		var drop byte
		if version >= 2 {
			if drop, err = br.ReadByte(); err != nil {
				return nil, fmt.Errorf("proxylog: drop reason: %w", err)
			}
			if DropReason(drop) >= NumDropReasons {
				return nil, fmt.Errorf("proxylog: invalid drop reason byte %d", drop)
			}
		}
		if lastMs > math.MaxInt64/int64(time.Millisecond) || lastMs < math.MinInt64/int64(time.Millisecond) {
			return nil, fmt.Errorf("proxylog: time %d ms: %w", lastMs, simtime.ErrRange)
		}
		out = append(out, Record{
			Time: simtime.Instant(lastMs * int64(time.Millisecond)), IMSI: subs.IMSI(imsiRaw), IMEI: imei.IMEI(imeiRaw), Scheme: Scheme(scheme),
			Host: hosts[hostID], Path: path, BytesUp: int64(up), BytesDown: int64(down),
			Duration: time.Duration(durMs) * time.Millisecond, Drop: DropReason(drop),
		})
		if err := out[len(out)-1].Validate(); err != nil {
			return nil, err
		}
	}
}

// sameAsRef decodes in through ReadBinary, over a reader that returns
// what it has and, unless whole is set, over one that returns a byte per
// Read, and holds both to refDecode: the same records, or the same error
// of the same class.
func sameAsRef(t *testing.T, name string, in []byte, whole bool) {
	t.Helper()
	want, werr := refDecode(bytes.NewReader(in))
	readers := []io.Reader{bytes.NewReader(in), iotest.OneByteReader(bytes.NewReader(in))}
	if whole {
		readers = readers[:1]
	}
	for _, r := range readers {
		got, gerr := ReadBinary(r)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) ||
			errors.Is(gerr, io.ErrUnexpectedEOF) != errors.Is(werr, io.ErrUnexpectedEOF) ||
			errors.Is(gerr, ErrHostDictLimit) != errors.Is(werr, ErrHostDictLimit) {
			t.Fatalf("%s: error %v, reference %v", name, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: records differ from the reference:\n got %v\nwant %v", name, got, want)
		}
	}
}

// TestDecoderMatchesReference holds the buffered-window decoder to the
// byte-at-a-time one over every truncation and byte flip of a sample
// stream, over every hundred-and-first cut and flip of a 120-record
// stream of both schemes that decodes in full, and over a host-dictionary
// flood. TestDecoderLargestRecords covers streams longer than the
// decoder's buffer.
func TestDecoderMatchesReference(t *testing.T) {
	var small, long bytes.Buffer
	if err := WriteBinary(&small, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for i := range 120 {
		r := sampleRecords()[i%5]
		r.Time = r.Time.Add(time.Duration(i*i) * time.Millisecond)
		if i%2 == 0 { // only an HTTP record may carry a path
			r.Scheme, r.Path = HTTP, fmt.Sprintf("/p/%d", i*37)
		}
		r.BytesDown <<= i % 40
		recs = append(recs, r)
	}
	recs[60].Path = strings.Repeat("/p", 2500)
	if err := WriteBinary(&long, recs); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadBinary(bytes.NewReader(long.Bytes())); err != nil || len(got) != len(recs) {
		t.Fatalf("the long stream decodes to %d of %d records: %v", len(got), len(recs), err)
	}
	for _, s := range []struct {
		name string
		data []byte
		step int
	}{{"sample", small.Bytes(), 1}, {"long", long.Bytes(), 101}} {
		for i := 0; i <= len(s.data); i += s.step {
			sameAsRef(t, fmt.Sprintf("%s cut to %d", s.name, i), s.data[:i], false)
		}
		for i := 0; i < len(s.data); i += s.step {
			for _, mask := range []byte{0x01, 0x80, 0xff} {
				in := bytes.Clone(s.data)
				in[i] ^= mask
				sameAsRef(t, fmt.Sprintf("%s with byte %d ^ %#x", s.name, i, mask), in, false)
			}
		}
	}
	if !testing.Short() {
		sameAsRef(t, "host flood", adversarialDefs(MaxHosts+1), true)
	}
}

// TestDecoderLargestRecords holds the decoder to the reference on the
// longest host and path the format allows, 1<<16 bytes each, in a stream
// longer than the decoder's buffer: cut and flipped at every 97th byte,
// and read a byte per Read whole and cut at every 4099th. One byte more is
// implausible, and a varint past ten bytes overflows.
func TestDecoderLargestRecords(t *testing.T) {
	small := sampleRecords()[1]
	bigHost, bigPath := small, small
	bigHost.Host = strings.Repeat("h", 1<<16)
	bigPath.Path = "/" + strings.Repeat("p", 1<<16-1)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, []Record{small, bigHost, bigPath, small}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if len(data) <= 1<<17 {
		t.Fatalf("the stream is %d bytes, within the decoder's buffer", len(data))
	}
	got, err := ReadBinary(bytes.NewReader(data))
	if err != nil || len(got) != 4 || got[1].Host != bigHost.Host || got[2].Path != bigPath.Path {
		t.Fatalf("decoded %d records: %v", len(got), err)
	}
	for i := 0; i <= len(data); i += 97 {
		sameAsRef(t, fmt.Sprintf("cut to %d", i), data[:i], true)
		if i < len(data) {
			for _, mask := range []byte{0x01, 0x80, 0xff} {
				in := bytes.Clone(data)
				in[i] ^= mask
				sameAsRef(t, fmt.Sprintf("byte %d ^ %#x", i, mask), in, true)
			}
		}
	}
	for i := 0; i <= len(data); i += 4099 {
		sameAsRef(t, fmt.Sprintf("cut to %d", i), data[:i], false)
	}
	sameAsRef(t, "whole", data, false)

	for _, long := range []Record{
		{Scheme: HTTPS, Host: strings.Repeat("h", 1<<16+1)},
		{Scheme: HTTP, Host: "a.example", Path: strings.Repeat("p", 1<<16+1)},
	} {
		buf.Reset()
		if err := WriteBinary(&buf, []Record{long}); err != nil {
			t.Fatal(err)
		}
		_, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err == nil || !strings.Contains(err.Error(), "implausible") {
			t.Fatalf("a %d-byte string decoded with error %v", 1<<16+1, err)
		}
		sameAsRef(t, "one byte too long", buf.Bytes(), false)
	}

	overflow := append([]byte(binMagic+"\x02\x02"), bytes.Repeat([]byte{0xff}, 11)...)
	for i := len(binMagic) + 2; i <= len(overflow); i++ {
		sameAsRef(t, fmt.Sprintf("overflowing delta cut to %d", i), overflow[:i], false)
	}
}
