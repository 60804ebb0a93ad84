package proxylog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/subs"
)

// The binary format is a compact streaming encoding for large logs:
//
//	header:  magic "WWPL" + version byte
//	opDef:   0x01, uvarint(len), host bytes      — interns the next host id
//	opRec:   0x02, svarint(delta ms since previous record time),
//	         uvarint(imsi), uvarint(imei), byte(scheme), uvarint(host id),
//	         uvarint(len)+path bytes, uvarint(up), uvarint(down),
//	         uvarint(duration ms), byte(drop reason)    [v2]
//
// Version 2 appends the drop-reason byte to opRec; the decoder still
// reads version-1 streams, whose records are all DropNone.
//
// Hosts repeat massively (a few hundred domains across millions of
// transactions), so interning plus time deltas makes the binary form
// several times smaller than CSV; the codec ablation bench quantifies it.
const (
	binMagic   = "WWPL"
	binVersion = 2

	opDef = 0x01
	opRec = 0x02
)

// MaxHosts caps the interned-host dictionary on both sides of the codec.
// Real proxy logs intern a few hundred domains; without a cap a malformed
// or adversarial stream of opDef opcodes grows the decoder's dictionary
// without bound (each entry individually passes the 1<<16 length check)
// and OOMs the streaming engine.
const MaxHosts = 1 << 20

// ErrHostDictLimit reports a stream that defines more than MaxHosts
// distinct hosts. Wrapped by both Encoder.Encode and Decoder.Decode;
// match with errors.Is.
var ErrHostDictLimit = errors.New("host dictionary limit exceeded")

// Encoder streams records into the binary format.
type Encoder struct {
	w       *bufio.Writer
	hosts   map[string]uint64
	lastMs  int64
	scratch []byte
	started bool
}

// NewEncoder returns an encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: bufio.NewWriter(w), hosts: make(map[string]uint64)}
}

func (e *Encoder) writeHeader() error {
	if _, err := e.w.WriteString(binMagic); err != nil {
		return err
	}
	return e.w.WriteByte(binVersion)
}

// Encode appends one record.
func (e *Encoder) Encode(r Record) error {
	if !e.started {
		if err := e.writeHeader(); err != nil {
			return err
		}
		e.started = true
	}
	id, known := e.hosts[r.Host]
	if !known {
		if len(e.hosts) >= MaxHosts {
			return fmt.Errorf("proxylog: %w (%d hosts)", ErrHostDictLimit, len(e.hosts))
		}
		id = uint64(len(e.hosts))
		e.hosts[r.Host] = id
		e.scratch = e.scratch[:0]
		e.scratch = append(e.scratch, opDef)
		e.scratch = binary.AppendUvarint(e.scratch, uint64(len(r.Host)))
		e.scratch = append(e.scratch, r.Host...)
		if _, err := e.w.Write(e.scratch); err != nil {
			return err
		}
	}
	ms := r.Time.UnixMilli()
	e.scratch = e.scratch[:0]
	e.scratch = append(e.scratch, opRec)
	e.scratch = binary.AppendVarint(e.scratch, ms-e.lastMs)
	e.lastMs = ms
	e.scratch = binary.AppendUvarint(e.scratch, uint64(r.IMSI))
	e.scratch = binary.AppendUvarint(e.scratch, uint64(r.IMEI))
	e.scratch = append(e.scratch, byte(r.Scheme))
	e.scratch = binary.AppendUvarint(e.scratch, id)
	e.scratch = binary.AppendUvarint(e.scratch, uint64(len(r.Path)))
	e.scratch = append(e.scratch, r.Path...)
	e.scratch = binary.AppendUvarint(e.scratch, uint64(r.BytesUp))
	e.scratch = binary.AppendUvarint(e.scratch, uint64(r.BytesDown))
	e.scratch = binary.AppendUvarint(e.scratch, uint64(r.Duration.Milliseconds()))
	e.scratch = append(e.scratch, byte(r.Drop))
	_, err := e.w.Write(e.scratch)
	return err
}

// Flush writes any buffered bytes. Call once after the last Encode. An
// encoder that never saw a record still emits a valid empty stream.
func (e *Encoder) Flush() error {
	if !e.started {
		if err := e.writeHeader(); err != nil {
			return err
		}
		e.started = true
	}
	return e.w.Flush()
}

// Decoder streams records out of the binary format.
type Decoder struct {
	r       *bufio.Reader
	hosts   []string
	lastMs  int64
	version byte
	started bool
	scratch []byte
}

// readString reads n bytes through the reusable scratch buffer, so only
// the resulting string allocates once the buffer has warmed up.
func (d *Decoder) readString(n uint64) (string, error) {
	if uint64(cap(d.scratch)) < n {
		d.scratch = make([]byte, n)
	}
	buf := d.scratch[:n]
	if _, err := io.ReadFull(d.r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// NewDecoder returns a decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: bufio.NewReader(r)}
}

func (d *Decoder) readHeader() error {
	var magic [5]byte
	if _, err := io.ReadFull(d.r, magic[:]); err != nil {
		return fmt.Errorf("proxylog: reading binary header: %w", err)
	}
	if string(magic[:4]) != binMagic {
		return fmt.Errorf("proxylog: bad magic %q", magic[:4])
	}
	if magic[4] == 0 || magic[4] > binVersion {
		return fmt.Errorf("proxylog: unsupported version %d", magic[4])
	}
	d.version = magic[4]
	return nil
}

// Decode returns the next record, or io.EOF at end of stream.
func (d *Decoder) Decode() (Record, error) {
	if !d.started {
		if err := d.readHeader(); err != nil {
			return Record{}, err
		}
		d.started = true
	}
	for {
		op, err := d.r.ReadByte()
		if err == io.EOF {
			return Record{}, io.EOF
		}
		if err != nil {
			return Record{}, err
		}
		switch op {
		case opDef:
			n, err := binary.ReadUvarint(d.r)
			if err != nil {
				return Record{}, fmt.Errorf("proxylog: host def: %w", err)
			}
			if n > 1<<16 {
				return Record{}, fmt.Errorf("proxylog: host length %d implausible", n)
			}
			if len(d.hosts) >= MaxHosts {
				return Record{}, fmt.Errorf("proxylog: %w (%d hosts)", ErrHostDictLimit, len(d.hosts))
			}
			host, err := d.readString(n)
			if err != nil {
				return Record{}, fmt.Errorf("proxylog: host def: %w", err)
			}
			d.hosts = append(d.hosts, host)
		case opRec:
			return d.readRecord()
		default:
			return Record{}, fmt.Errorf("proxylog: unknown opcode %#x", op)
		}
	}
}

// readRecord decodes an opRec body from the buffered bytes, buffering
// more while they hold only part of it. A record that is invalid, cut
// short by the end of the stream or longer than the buffer is decoded
// field by field instead, which names what is wrong.
func (d *Decoder) readRecord() (Record, error) {
	for {
		rec, w := d.readBuffered()
		if w.bad {
			break
		}
		if !w.short {
			return rec, nil
		}
		if _, err := d.r.Peek(d.r.Buffered() + 1); err != nil {
			break
		}
	}
	delta, err := binary.ReadVarint(d.r)
	if err != nil {
		return Record{}, fmt.Errorf("proxylog: time delta: %w", err)
	}
	d.lastMs += delta
	uv := func(what string) (uint64, error) {
		v, err := binary.ReadUvarint(d.r)
		if err != nil {
			return 0, fmt.Errorf("proxylog: %s: %w", what, err)
		}
		return v, nil
	}
	imsiRaw, err := uv("imsi")
	if err != nil {
		return Record{}, err
	}
	imeiRaw, err := uv("imei")
	if err != nil {
		return Record{}, err
	}
	schemeByte, err := d.r.ReadByte()
	if err != nil {
		return Record{}, fmt.Errorf("proxylog: scheme: %w", err)
	}
	if schemeByte > uint8(HTTPS) {
		return Record{}, fmt.Errorf("proxylog: invalid scheme byte %d", schemeByte)
	}
	hostID, err := uv("host id")
	if err != nil {
		return Record{}, err
	}
	if hostID >= uint64(len(d.hosts)) {
		return Record{}, fmt.Errorf("proxylog: host id %d not defined", hostID)
	}
	pathLen, err := uv("path length")
	if err != nil {
		return Record{}, err
	}
	if pathLen > 1<<16 {
		return Record{}, fmt.Errorf("proxylog: path length %d implausible", pathLen)
	}
	var path string
	if pathLen > 0 {
		if path, err = d.readString(pathLen); err != nil {
			return Record{}, fmt.Errorf("proxylog: path: %w", err)
		}
	}
	up, err := uv("up bytes")
	if err != nil {
		return Record{}, err
	}
	down, err := uv("down bytes")
	if err != nil {
		return Record{}, err
	}
	durMs, err := uv("duration")
	if err != nil {
		return Record{}, err
	}
	var drop DropReason
	if d.version >= 2 {
		dropByte, err := d.r.ReadByte()
		if err != nil {
			return Record{}, fmt.Errorf("proxylog: drop reason: %w", err)
		}
		if DropReason(dropByte) >= NumDropReasons {
			return Record{}, fmt.Errorf("proxylog: invalid drop reason byte %d", dropByte)
		}
		drop = DropReason(dropByte)
	}
	return Record{
		Time:      time.UnixMilli(d.lastMs).UTC(),
		IMSI:      subs.IMSI(imsiRaw),
		IMEI:      imei.IMEI(imeiRaw),
		Scheme:    Scheme(schemeByte),
		Host:      d.hosts[hostID],
		Path:      path,
		BytesUp:   int64(up),
		BytesDown: int64(down),
		Duration:  time.Duration(durMs) * time.Millisecond,
		Drop:      drop,
	}, nil
}

// readBuffered decodes a record from the bytes already buffered, without
// a call per byte, and consumes them if they hold the whole record and
// it is valid. Otherwise it consumes nothing, and the window it returns
// tells which.
func (d *Decoder) readBuffered() (Record, window) {
	b, _ := d.r.Peek(d.r.Buffered())
	w := window{b: b}
	zigzag := w.uvarint()
	imsiRaw, imeiRaw := w.uvarint(), w.uvarint()
	scheme := w.octet()
	hostID := w.uvarint()
	path := w.take(w.uvarint())
	up, down, durMs := w.uvarint(), w.uvarint(), w.uvarint()
	drop := DropNone
	if d.version >= 2 {
		drop = DropReason(w.octet())
	}
	if !w.short && (scheme > uint8(HTTPS) || hostID >= uint64(len(d.hosts)) || drop >= NumDropReasons) {
		w.bad = true
	}
	if w.short || w.bad {
		return Record{}, w
	}
	_, _ = d.r.Discard(len(b) - len(w.b))
	delta := int64(zigzag >> 1) // binary.Varint's zigzag decoding
	if zigzag&1 != 0 {
		delta = ^delta
	}
	d.lastMs += delta
	return Record{
		Time:      time.UnixMilli(d.lastMs).UTC(),
		IMSI:      subs.IMSI(imsiRaw),
		IMEI:      imei.IMEI(imeiRaw),
		Scheme:    Scheme(scheme),
		Host:      d.hosts[hostID],
		Path:      string(path),
		BytesUp:   int64(up),
		BytesDown: int64(down),
		Duration:  time.Duration(durMs) * time.Millisecond,
		Drop:      drop,
	}, w
}

// window reads a record's fields off the front of b. short turns true at
// the first field that b holds only part of, and every later field reads
// as zero; bad turns true at a field that is invalid however many bytes
// follow.
type window struct {
	b          []byte
	short, bad bool
}

func (w *window) uvarint() uint64 {
	v, n := binary.Uvarint(w.b)
	switch {
	case n > 0:
		w.b = w.b[n:]
	case n == 0:
		w.short, w.b = true, nil
	default:
		w.bad = true
	}
	return v
}

func (w *window) octet() byte {
	if len(w.b) == 0 {
		w.short = true
		return 0
	}
	c := w.b[0]
	w.b = w.b[1:]
	return c
}

// take returns the next n bytes, which the format caps at 1<<16.
func (w *window) take(n uint64) []byte {
	switch {
	case n > 1<<16:
		w.bad = true
	case n > uint64(len(w.b)):
		w.short, w.b = true, nil
	default:
		s := w.b[:n]
		w.b = w.b[n:]
		return s
	}
	return nil
}

// WriteBinary encodes all records to w.
func WriteBinary(w io.Writer, records []Record) error {
	enc := NewEncoder(w)
	for _, r := range records {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return enc.Flush()
}

// StreamBinary decodes a binary stream record by record into fn. This is
// the bounded-memory path the streaming study engine consumes; an error
// from fn aborts the stream.
func StreamBinary(r io.Reader, fn func(Record) error) error {
	dec := NewDecoder(r)
	for {
		rec, err := dec.Decode()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// ReadBinary decodes an entire binary stream: the whole-log convenience
// wrapper over StreamBinary, for callers that explicitly want a resident
// slice.
func ReadBinary(r io.Reader) ([]Record, error) {
	var out []Record
	err := StreamBinary(r, func(rec Record) error {
		out = append(out, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
