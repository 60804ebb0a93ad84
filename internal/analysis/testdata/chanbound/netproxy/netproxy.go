// Package netproxy is the chanbound fixture root: its functions are
// collection-path roots, so every record/accept hot loop here — and in
// the helpers they call — is audited for unbounded sends.
package netproxy

import (
	"net"

	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/sink"
)

// AcceptPush hands accepted connections into an unbounded channel: a
// stalled receiver parks the accept loop.
func AcceptPush(ln net.Listener, conns chan net.Conn) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		conns <- c // want ctxflow
	}
}

// PumpRecords pushes every record through an unbounded send.
func PumpRecords(recs []proxylog.Record, out chan proxylog.Record) {
	for _, r := range recs {
		out <- r // want ctxflow
	}
}

// PushBuffered shows that capacity alone is not a bound: the buffer only
// delays the park.
func PushBuffered(recs []proxylog.Record) chan proxylog.Record {
	out := make(chan proxylog.Record, 64)
	for _, r := range recs {
		out <- r // want ctxflow
	}
	return out
}

// PushViaClosure sends from a literal nested in the hot loop: it still
// runs once per iteration.
func PushViaClosure(recs []proxylog.Record, out chan proxylog.Record) {
	for _, r := range recs {
		r := r
		func() {
			out <- r // want ctxflow
		}()
	}
}

// Collect reaches the sink helper: the finding there carries this chain.
func Collect(recs []proxylog.Record, out chan proxylog.Record) {
	sink.Forward(recs, out)
}

// PushOrDrop takes the select-with-default drop path: bounded.
func PushOrDrop(recs []proxylog.Record, out chan proxylog.Record) (dropped int) {
	for _, r := range recs {
		select {
		case out <- r:
		default:
			dropped++
		}
	}
	return dropped
}

// PushUntilDone bounds the backpressure with a shutdown case.
func PushUntilDone(recs []proxylog.Record, out chan proxylog.Record, done chan struct{}) {
	for _, r := range recs {
		select {
		case out <- r:
		case <-done:
			return
		}
	}
}

// DrainOwned owns the pipeline: it spawns the receiver, closes the
// channel after the loop, and joins on the completion signal.
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

// Publish sends outside any hot loop: not the hot-loop send rule's business.
func Publish(r proxylog.Record, out chan proxylog.Record) {
	out <- r
}
