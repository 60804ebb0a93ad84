// Package netproxy is the all-clean ctxflow fixture: every conn I/O site
// in a spawned goroutine is deadline-guarded, so the check must stay
// entirely silent.
package netproxy

import (
	"net"
	"time"
)

// Relay arms both deadlines before spawning the copier.
func Relay(c net.Conn) {
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	go func() {
		buf := make([]byte, 512)
		_, _ = c.Read(buf)
		_, _ = c.Write(buf)
	}()
}
