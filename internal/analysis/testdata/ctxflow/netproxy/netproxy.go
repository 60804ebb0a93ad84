// Package netproxy is the ctxflow fixture root: raw conn I/O inside
// spawned goroutines is judged by the conn-I/O rule like any other, with
// the deadlines armed by the spawning function, here or one package over.
package netproxy

import (
	"net"
	"time"

	"wearwild/internal/mnet/sink"
)

// SpawnConnRead parks on raw conn I/O with no deadline in the function
// or on any path into it.
func SpawnConnRead(c net.Conn) {
	go func() {
		buf := make([]byte, 1)
		_, _ = c.Read(buf) // want ctxflow
	}()
}

// SpawnGuardedRead arms the read deadline in the spawning function, which
// the literal's read belongs to.
func SpawnGuardedRead(c net.Conn) {
	_ = c.SetReadDeadline(time.Now().Add(time.Second))
	go func() {
		buf := make([]byte, 1)
		_, _ = c.Read(buf)
	}()
}

// SpawnGuardedHelper arms both deadlines before handing the conn to the
// helper: the caller's guard keeps sink.Pump silent.
func SpawnGuardedHelper(c net.Conn) {
	_ = c.SetDeadline(time.Now().Add(time.Second))
	go sink.Pump(c)
}
