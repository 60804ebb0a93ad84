// Package pack is reachable from both the study root (the growth rule's
// surface) and the generator root (the allocation rule's surface):
// Collect's materialising append is flagged by both rules on the same
// line, and Pack's slab-header append by the retention and allocation
// rules. Each line keeps the verdict of the higher-ranked rule.
package pack

import "wearwild/internal/mnet/proxylog"

// Collect materialises the whole log and hands it back.
func Collect(recs []proxylog.Record) []proxylog.Record {
	var all []proxylog.Record
	for _, r := range recs {
		all = append(all, r) // want membound
	}
	return all
}

// Pack reuses a scratch slab and appends its header into the output.
func Pack(chunks [][]byte) [][]byte {
	var out [][]byte
	var buf []byte
	for _, c := range chunks {
		buf = buf[:0]
		buf = append(buf, c...)
		out = append(out, buf) // want membound
	}
	return out
}
