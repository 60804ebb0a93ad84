// Package sink holds the helper netproxy spawns: the chain half of the
// ctxflow fixture.
package sink

import "net"

// Pump does raw conn I/O with no local deadline; its one caller arms
// SetDeadline before the go statement, so it stays silent.
func Pump(c net.Conn) {
	buf := make([]byte, 8)
	_, _ = c.Read(buf)
	_, _ = c.Write(buf)
}
