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
	"wearwild/internal/simtime"
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
// transactions), so interning plus time deltas keeps a record to a few
// dozen bytes (wearperf reports codec.proxy_bytes_per_rec).
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

// Encode appends one record. A record that fails Validate, which the
// decoder would reject, is not written: Encode returns its error and the
// stream stays as it was.
func (e *Encoder) Encode(r Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
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
}

// NewDecoder returns a decoder reading from r. Its buffer holds the
// longest opDef or opRec the format allows (a 1<<16-byte string and ten
// varints after the opcode), so every one is decoded from the buffer.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: bufio.NewReaderSize(r, 1<<17)}
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

// Decode returns the next record, or io.EOF at end of stream. Every
// record it returns passes Record.Validate; an invalid one is an error.
func (d *Decoder) Decode() (Record, error) {
	if !d.started {
		if err := d.readHeader(); err != nil {
			return Record{}, err
		}
		d.started = true
	}
	for {
		op, err := d.r.ReadByte()
		if err != nil {
			return Record{}, err
		}
		if op != opDef && op != opRec {
			return Record{}, fmt.Errorf("proxylog: unknown opcode %#x", op)
		}
		var w window
		if err := d.read(op, &w); err != nil {
			return Record{}, err
		}
		if op == opDef {
			d.hosts = append(d.hosts, string(w.str))
			continue
		}
		delta := int64(w.zigzag >> 1) // binary.Varint's zigzag decoding
		if w.zigzag&1 != 0 {
			delta = ^delta
		}
		ms := d.lastMs + delta // a sum past int64 wraps out of the Instant range
		t, err := simtime.FromUnix(ms, time.Millisecond)
		if err != nil {
			return Record{}, fmt.Errorf("proxylog: time %d ms: %w", ms, err)
		}
		d.lastMs = ms
		rec := Record{
			Time:      t,
			IMSI:      subs.IMSI(w.imsi),
			IMEI:      imei.IMEI(w.imei),
			Scheme:    Scheme(w.scheme),
			Host:      d.hosts[w.hostID],
			Path:      string(w.str),
			BytesUp:   int64(w.up),
			BytesDown: int64(w.down),
			Duration:  time.Duration(w.durMs) * time.Millisecond,
			Drop:      DropReason(w.drop),
		}
		if err := rec.Validate(); err != nil {
			return Record{}, err
		}
		return rec, nil
	}
}

// read decodes the body that follows opcode op into w from the buffered
// bytes, buffering more while they hold only part of it, and consumes
// it. Its errors are those of a decoder that reads the body a byte at a
// time: the first failing field names itself, and a field cut short by
// the end of the stream fails with io.EOF if none of it arrived and
// io.ErrUnexpectedEOF if some did.
func (d *Decoder) read(op byte, w *window) error {
	var readErr error
	for {
		b, _ := d.r.Peek(d.r.Buffered())
		*w = window{b: b}
		if op == opDef {
			d.parseDef(w)
		} else {
			d.parseRec(w)
		}
		switch {
		case w.err != nil:
			return w.err
		case !w.failed:
			_, err := d.r.Discard(len(b) - len(w.b))
			return err
		case readErr != nil:
			if readErr == io.EOF && len(w.rest) > 0 {
				readErr = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("proxylog: %s: %w", w.what, readErr)
		}
		_, readErr = d.r.Peek(len(b) - len(w.rest) + w.want)
	}
}

// parseDef reads an opDef body: uvarint(len), host bytes.
func (d *Decoder) parseDef(w *window) {
	n := w.uvarint("host def")
	if !w.failed && n > 1<<16 {
		w.invalid(fmt.Errorf("proxylog: host length %d implausible", n))
	}
	if !w.failed && len(d.hosts) >= MaxHosts {
		w.invalid(fmt.Errorf("proxylog: %w (%d hosts)", ErrHostDictLimit, len(d.hosts)))
	}
	w.str = w.take("host def", n)
}

// parseRec reads an opRec body in the field order of the format comment.
func (d *Decoder) parseRec(w *window) {
	w.zigzag = w.uvarint("time delta")
	w.imsi = w.uvarint("imsi")
	w.imei = w.uvarint("imei")
	w.scheme = w.octet("scheme")
	if !w.failed && w.scheme > uint8(HTTPS) {
		w.invalid(fmt.Errorf("proxylog: invalid scheme byte %d", w.scheme))
	}
	w.hostID = w.uvarint("host id")
	if !w.failed && w.hostID >= uint64(len(d.hosts)) {
		w.invalid(fmt.Errorf("proxylog: host id %d not defined", w.hostID))
	}
	n := w.uvarint("path length")
	if !w.failed && n > 1<<16 {
		w.invalid(fmt.Errorf("proxylog: path length %d implausible", n))
	}
	w.str = w.take("path", n)
	w.up = w.uvarint("up bytes")
	w.down = w.uvarint("down bytes")
	w.durMs = w.uvarint("duration")
	if d.version >= 2 {
		w.drop = w.octet("drop reason")
		if !w.failed && DropReason(w.drop) >= NumDropReasons {
			w.invalid(fmt.Errorf("proxylog: invalid drop reason byte %d", w.drop))
		}
	}
}

// errOverflow is the error encoding/binary's ReadUvarint returns for a
// varint longer than ten bytes, so the window fails such a stream as a
// byte-at-a-time reader does.
var errOverflow = errors.New("binary: varint overflows a 64-bit integer")

// window reads the fields of one body off the front of b. At the first
// field that fails, failed turns true and every later field reads as
// zero. The failing field either is invalid however many bytes follow,
// and err holds its error, or b holds only part of it: what names it,
// rest holds that part and want is the length that would let it go on.
type window struct {
	b      []byte
	failed bool
	err    error
	what   string
	rest   []byte
	want   int

	str                                         []byte // an opDef's host, an opRec's path
	zigzag, imsi, imei, hostID, up, down, durMs uint64
	scheme, drop                                byte
}

func (w *window) invalid(err error) {
	w.failed, w.err = true, err
}

func (w *window) short(what string, rest []byte, want int) {
	w.failed, w.what, w.rest, w.want = true, what, rest, want
}

func (w *window) uvarint(what string) uint64 {
	if w.failed {
		return 0
	}
	v, n := binary.Uvarint(w.b)
	switch {
	case n > 0:
		w.b = w.b[n:]
		return v
	case n < 0 || len(w.b) >= binary.MaxVarintLen64:
		w.invalid(fmt.Errorf("proxylog: %s: %w", what, errOverflow))
	default:
		w.short(what, w.b, len(w.b)+1)
	}
	return 0
}

func (w *window) octet(what string) byte {
	if w.failed {
		return 0
	}
	if len(w.b) == 0 {
		w.short(what, nil, 1)
		return 0
	}
	c := w.b[0]
	w.b = w.b[1:]
	return c
}

// take returns the next n bytes; the caller has checked n against the
// format's 1<<16 cap.
func (w *window) take(what string, n uint64) []byte {
	if w.failed {
		return nil
	}
	if n > uint64(len(w.b)) {
		w.short(what, w.b, int(n))
		return nil
	}
	s := w.b[:n]
	w.b = w.b[n:]
	return s
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
