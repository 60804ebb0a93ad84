// Package netproxy is the all-clean hot-loop send fixture: every
// hot-loop send is bounded by one of the three disciplines, and the
// remaining sends sit outside hot loops. The one finding is the
// goroutine walk's, on the owned pipeline's consumer range.
package netproxy

import (
	"net"
	"time"

	"wearwild/internal/mnet/proxylog"
)

// AcceptDrop drops accepted connections when the handoff is full and
// counts them: the select-with-default discipline on an accept loop.
func AcceptDrop(ln net.Listener, conns chan net.Conn) (dropped int) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return dropped
		}
		select {
		case conns <- c:
		default:
			_ = c.Close()
			dropped++
		}
	}
}

// PushUntilDone bounds record backpressure with a shutdown case.
func PushUntilDone(recs []proxylog.Record, out chan proxylog.Record, done chan struct{}) {
	for _, r := range recs {
		select {
		case out <- r:
		case <-done:
			return
		}
	}
}

// PushDeadline bounds the park with a timer case.
func PushDeadline(recs []proxylog.Record, out chan proxylog.Record) {
	t := time.NewTimer(time.Second)
	defer t.Stop()
	for _, r := range recs {
		select {
		case out <- r:
		case <-t.C:
			return
		}
	}
}

// DrainOwned owns the whole pipeline: spawned receiver, closed channel,
// joined completion.
func DrainOwned(recs []proxylog.Record) int {
	ch := make(chan proxylog.Record)
	donec := make(chan struct{})
	total := 0
	go func() {
		for range ch { // want ctxflow
			total++
		}
		close(donec)
	}()
	for _, r := range recs {
		ch <- r
	}
	close(ch)
	<-donec
	return total
}

// Publish sends outside any hot loop.
func Publish(r proxylog.Record, out chan proxylog.Record) {
	out <- r
}
