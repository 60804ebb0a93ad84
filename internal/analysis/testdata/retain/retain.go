// Package codec seeds the slab-retention fixtures: a decoder whose
// scratch buffer carries both reuse markers (reset and cap-guard
// regrow), every escape spelling the check flags, and the sanctioned
// copy-first idioms that must stay silent.
package codec

// Decoder reuses scratch across Decode calls.
type Decoder struct {
	scratch []byte
	last    []byte
}

// fill resets the slab — the reuse marker that makes scratch a slab
// for the whole unit.
func (d *Decoder) fill(src []byte) {
	d.scratch = d.scratch[:0]
	d.scratch = append(d.scratch, src...)
}

// ensure is the cap-guarded regrow marker on the same slab.
func (d *Decoder) ensure(n int) {
	if cap(d.scratch) < n {
		d.scratch = make([]byte, 0, n)
	}
}

// line is a package-level scratch row, cap-guard regrown per record.
var line []byte

// setLine regrows the package slab.
func setLine(n int) {
	if cap(line) < n {
		line = make([]byte, n)
	}
}

// Token returns the slab itself: the alias escapes the iteration that
// filled it.
func (d *Decoder) Token() []byte {
	return d.scratch // want membound
}

// Window returns a sub-slice through a two-hop alias chain: the alias
// tracking must follow both definitions.
func (d *Decoder) Window(n int) []byte {
	head := d.scratch[:n]
	tail := head
	return tail // want membound
}

// Keep stores the slab into a field: it survives into the decoder.
func (d *Decoder) Keep() {
	d.last = d.scratch // want membound
}

// Index parks the alias in a map: retained past the loop.
func (d *Decoder) Index(m map[string][]byte, k string) {
	m[k] = d.scratch // want membound
}

// Header appends the slab header into a frame list: the alias lives on
// inside the outer slice.
func (d *Decoder) Header(frames [][]byte) [][]byte {
	frames = append(frames, d.scratch) // want membound
	return frames
}

// Stringed copies before storing: the sanctioned spelling.
func (d *Decoder) Stringed(m map[string]string, k string) {
	m[k] = string(d.scratch)
}

// Copied appends the bytes, not the header: an exact copy.
func Copied(dst []byte) []byte {
	return append(dst, line...)
}

// Sink hands the slab to a callee, which is assumed to copy or finish
// with it before returning: clean.
func (d *Decoder) Sink(w interface{ Write([]byte) (int, error) }) {
	_, _ = w.Write(d.scratch)
}

// Refill stores into the slab itself: the reuse pattern, exempt.
func (d *Decoder) Refill(src []byte) {
	d.scratch = append(d.scratch[:0], src...)
}

// Peek returns the live slab deliberately; the directive records that
// callers treat the view as transient.
func (d *Decoder) Peek() []byte {
	//wearlint:ignore membound fixture: documented transient view the caller consumes before the next Decode
	return d.scratch
}
