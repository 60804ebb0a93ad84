// Package stream defines the single record-stream interface the study
// engine consumes: one callback per proxy, MME and UDR record, plus a
// per-subscriber completion hint, and an optional per-subscriber
// handover for sources that know where a subscriber starts and ends.
// Every data source — the traffic generator, the binary/CSV log decoders,
// the resident in-memory logs and the live proxy tail — implements
// Source, so the engine never needs a materialised whole log.
package stream

import (
	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/mnet/udr"
)

// Sink receives records. A source pushes every record it has, then
// returns; errors from the sink abort the stream.
//
// UserDone tells the sink that no further record for the subscriber will
// arrive on any of the three feeds. User-major sources (the generator,
// the resident log source) hand over one subscriber at a time through
// PerUser, which on a plain Sink means the subscriber's records followed
// right away by UserDone, so the consumer can fold and evict that
// subscriber's state immediately; record-major sources (file decoders,
// the live tail) never call it and the consumer evicts everything when
// Stream returns. User-major sources must emit subscribers in ascending
// IMSI order — the equivalence suite pins cross-source byte-identity on
// top of that contract.
type Sink interface {
	Proxy(rec proxylog.Record) error
	MME(rec mme.Record) error
	UDR(rec udr.Record) error
	UserDone(imsi subs.IMSI) error
}

// UserSink is implemented by sinks that also take whole subscribers from
// user-major sources, which reach it through PerUser. User stands for
// the per-record calls of one subscriber's records followed by UserDone:
// gather appends those records to dst — proxy, then MME, then UDR, each
// in the order the per-record calls would make — and each call appends
// them again. The sink may call gather after User returns and from
// another goroutine, so what gather reads must stay unchanged until the
// sink's consumer has finished with the stream (for the study engine,
// until RunStream returns).
type UserSink interface {
	User(imsi subs.IMSI, gather func(dst *Records)) error
}

// Records holds records of the three feeds.
type Records struct {
	Proxy []proxylog.Record
	MME   []mme.Record
	UDR   []udr.Record
}

// Reset empties r and keeps its capacity for reuse.
func (r *Records) Reset() {
	r.Proxy = r.Proxy[:0]
	r.MME = r.MME[:0]
	r.UDR = r.UDR[:0]
}

// PerUser returns how a user-major source hands sink its subscribers:
// sink itself when it is a UserSink, otherwise an adapter that runs each
// gather into one reused scratch and makes the per-record calls and
// UserDone, exactly as a per-record source would.
func PerUser(sink Sink) UserSink {
	if us, ok := sink.(UserSink); ok {
		return us
	}
	return &perRecord{sink: sink}
}

// perRecord replays whole subscribers into a plain Sink.
type perRecord struct {
	sink    Sink
	scratch Records
}

func (p *perRecord) User(imsi subs.IMSI, gather func(dst *Records)) error {
	p.scratch.Reset()
	gather(&p.scratch)
	for _, r := range p.scratch.Proxy {
		if err := p.sink.Proxy(r); err != nil {
			return err
		}
	}
	for _, r := range p.scratch.MME {
		if err := p.sink.MME(r); err != nil {
			return err
		}
	}
	for _, r := range p.scratch.UDR {
		if err := p.sink.UDR(r); err != nil {
			return err
		}
	}
	return p.sink.UserDone(imsi)
}

// Source streams its records into the sink.
type Source interface {
	Stream(sink Sink) error
}
