// Package proxylog declares the record type both the growth and the
// allocation rules key on.
package proxylog

// Record is one proxy log line.
type Record struct {
	IMSI  uint64
	Bytes int64
}
