// Package codec is the slab-retention clean tree: the same slab markers as the
// flagged fixture, but every use copies first or stays within the
// iteration. Zero findings.
package codec

// Decoder reuses scratch across Decode calls.
type Decoder struct {
	scratch []byte
}

// fill resets the slab: the reuse marker.
func (d *Decoder) fill(src []byte) {
	d.scratch = d.scratch[:0]
	d.scratch = append(d.scratch, src...)
}

// ensure is the cap-guarded regrow marker.
func (d *Decoder) ensure(n int) {
	if cap(d.scratch) < n {
		d.scratch = make([]byte, 0, n)
	}
}

// Token copies the slab before returning.
func (d *Decoder) Token() []byte {
	return append([]byte(nil), d.scratch...)
}

// Text converts to a string, which copies.
func (d *Decoder) Text() string {
	return string(d.scratch)
}

// Store copies the bytes into the map value.
func (d *Decoder) Store(m map[string][]byte, k string) {
	m[k] = append([]byte(nil), d.scratch...)
}

// Local aliases the slab inside the iteration only: the alias never
// escapes the function.
func (d *Decoder) Local() int {
	view := d.scratch
	n := 0
	for _, b := range view {
		n += int(b)
	}
	return n
}
