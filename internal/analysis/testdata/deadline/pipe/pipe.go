// Package pipe holds the raw conn IO sites for the deadline fixture;
// package wire supplies (or withholds) the caller-side guards.
package pipe

import (
	"net"
	"time"
)

// Guarded arms its own read deadline before reading: clean.
func Guarded(c net.Conn, buf []byte) (int, error) {
	if err := c.SetReadDeadline(time.Time{}); err != nil {
		return 0, err
	}
	return c.Read(buf)
}

// Helper reads with no local guard; wire.Run guards every path into it:
// clean.
func Helper(c net.Conn, buf []byte) (int, error) {
	return c.Read(buf)
}

// Leaky reads with no guard anywhere: wire.Relay reaches it unguarded.
func Leaky(c net.Conn, buf []byte) (int, error) {
	return c.Read(buf) // want ctxflow
}

// WrongWay arms only the read deadline, then writes: deadlines are
// direction-aware, so the write is unguarded.
func WrongWay(c net.Conn, b []byte) (int, error) {
	if err := c.SetReadDeadline(time.Time{}); err != nil {
		return 0, err
	}
	return c.Write(b) // want ctxflow
}
