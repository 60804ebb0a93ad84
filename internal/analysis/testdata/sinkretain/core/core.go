// Package core implements the Sink contract every way a record can
// escape — field store, map insert, append, channel send, goroutine
// capture, and an escape one call below the method — while the
// non-record UserDone parameter stays silent everywhere.
package core

import "wearwild/internal/mnet/proxylog"

// fieldSink parks the record in a field.
type fieldSink struct {
	last proxylog.Record
	seen uint64
}

// Proxy implements stream.Sink.
func (s *fieldSink) Proxy(r proxylog.Record) error {
	s.last = r // want membound
	return nil
}

// UserDone stores its scalar parameter: not record-bearing, so silent.
func (s *fieldSink) UserDone(imsi uint64) error {
	s.seen = imsi
	return nil
}

// mapSink indexes records by subscriber.
type mapSink struct{ byUser map[uint64]proxylog.Record }

// Proxy implements stream.Sink.
func (s *mapSink) Proxy(r proxylog.Record) error {
	s.byUser[r.IMSI] = r // want membound
	return nil
}

// UserDone implements stream.Sink.
func (s *mapSink) UserDone(imsi uint64) error {
	delete(s.byUser, imsi)
	return nil
}

// appendSink materialises the whole feed.
type appendSink struct{ all []proxylog.Record }

// Proxy implements stream.Sink.
func (s *appendSink) Proxy(r proxylog.Record) error {
	s.all = append(s.all, r) // want membound
	return nil
}

// UserDone implements stream.Sink.
func (s *appendSink) UserDone(imsi uint64) error { return nil }

// chanSink forwards records over an unowned channel.
type chanSink struct{ ch chan proxylog.Record }

// Proxy implements stream.Sink.
func (s *chanSink) Proxy(r proxylog.Record) error {
	s.ch <- r // want membound
	return nil
}

// UserDone implements stream.Sink.
func (s *chanSink) UserDone(imsi uint64) error { return nil }

// goSink hands the record to a goroutine it spawns per call.
type goSink struct{ out chan proxylog.Record }

// Proxy implements stream.Sink.
func (s *goSink) Proxy(r proxylog.Record) error {
	go func() { s.out <- r }() // want membound
	return nil
}

// UserDone implements stream.Sink.
func (s *goSink) UserDone(imsi uint64) error { return nil }

// vault is the helper one call below the Sink method; the diagnostic
// lands on its append with the forwarding chain.
type vault struct{ all []proxylog.Record }

func (v *vault) put(r proxylog.Record) {
	v.all = append(v.all, r) // want membound
}

// fwdSink retains through a callee instead of in the method body.
type fwdSink struct{ v *vault }

// Proxy implements stream.Sink.
func (s *fwdSink) Proxy(r proxylog.Record) error {
	s.v.put(r)
	return nil
}

// UserDone implements stream.Sink.
func (s *fwdSink) UserDone(imsi uint64) error { return nil }
