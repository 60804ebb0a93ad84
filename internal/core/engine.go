package core

import (
	"fmt"
	"sort"
	"sync"

	"wearwild/internal/mnet/cells"
	"wearwild/internal/mnet/devicedb"
	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/mnet/udr"
	"wearwild/internal/shard"
	"wearwild/internal/sortx"
	"wearwild/internal/stream"

	"wearwild/internal/gen/apps"
	"wearwild/internal/study/appid"
	"wearwild/internal/study/fingerprint"
	"wearwild/internal/study/mobmetrics"
	"wearwild/internal/study/sessions"
)

// Env is the static context a study needs besides the record stream: the
// device database that identifies wearables (§3.2), the radio topology the
// mobility metrics measure distances on, and the app catalogue behind
// transaction classification. It carries no log data.
type Env struct {
	Devices  *devicedb.DB
	Topology *cells.Topology
	Catalog  *apps.Catalog
}

// worker is one partition of the study: the subscribers routed to it,
// their open bundles, the partial accumulator they are evicted into, a
// spare bundle for the next subscriber it opens, and the buffers of
// eviction and its analyzers. Every buffer keeps the capacity of the
// largest subscriber it has served. A worker is touched by one goroutine
// at a time, so no accumulator is ever shared.
//
// A bundle (stream.Records) buffers one subscriber's records until the
// subscriber completes. Bundles and worker batches (below) are the only
// places the engine holds raw records; a subscriber's bundle is evicted
// (processed into scalar accumulators and reset) at UserDone, or as soon
// as a whole subscriber handed over with User is gathered, so a
// user-major source is analysed in memory proportional to the subscriber
// population plus the subscribers in flight — never the log length.
// TestStreamingResidency bounds that: the live heap may not grow with the
// records streamed while the engine runs (DESIGN.md §8).
type worker struct {
	acc       *partial
	pending   map[subs.IMSI]*stream.Records
	spare     *stream.Records
	devs      devices
	wearRecs  []proxylog.Record
	phoneRecs []proxylog.Record
	sessions  sessions.Scratch
	usages    []sessions.Usage
	mob       mobmetrics.Scratch
}

// engine is the streaming study: a stream.Sink that routes records to
// per-subscriber bundles in the worker owning the subscriber and evicts
// each subscriber into that worker's partial accumulator.
type engine struct {
	cfg      Config
	env      Env
	resolver *appid.Resolver
	analyzer *mobmetrics.Analyzer
	detector *fingerprint.Detector

	workers []*worker
}

func newEngine(env Env, cfg Config) (*engine, error) {
	if env.Devices == nil || env.Topology == nil || env.Catalog == nil {
		return nil, fmt.Errorf("core: incomplete study environment")
	}
	analyzer, err := mobmetrics.New(env.Topology)
	if err != nil {
		return nil, err
	}
	e := &engine{
		cfg:      cfg,
		env:      env,
		resolver: appid.NewResolver(env.Catalog),
		analyzer: analyzer,
		detector: fingerprint.NewDetector(fingerprint.DefaultSignatures()),
		workers:  make([]*worker, shard.Workers(cfg.Workers)),
	}
	for i := range e.workers {
		e.workers[i] = &worker{acc: newPartial(), pending: make(map[subs.IMSI]*stream.Records), devs: devices{db: env.Devices}}
	}
	return e, nil
}

// ownerOf routes a subscriber to the worker that owns them: a pure IMSI
// hash, so a subscriber's records all reach one worker whatever order the
// source emits them in.
func ownerOf(user subs.IMSI, workers int) int {
	return int(shard.Hash64(uint64(user)) % uint64(workers))
}

func (w *worker) bundle(user subs.IMSI) *stream.Records {
	b := w.pending[user]
	if b == nil {
		b, w.spare = w.spare, nil
		if b == nil {
			b = &stream.Records{}
		}
		w.pending[user] = b
	}
	return b
}

// userDone evicts a completed subscriber.
func (e *engine) userDone(w *worker, user subs.IMSI) {
	if b := w.pending[user]; b != nil { // nil: user had no records
		e.evict(w, user, b)
	}
}

// user folds one whole subscriber: gather appends their records to the
// bundle, which is then evicted.
func (e *engine) user(w *worker, user subs.IMSI, gather func(*stream.Records)) {
	b := w.bundle(user)
	gather(b)
	e.evict(w, user, b)
}

// evict folds a subscriber's bundle into the worker's partial, drops the
// subscriber from pending and keeps the emptied bundle as the spare. An
// empty bundle (a gather that brought no records) leaves no residue, as
// a UserDone for a subscriber without records does not.
func (e *engine) evict(w *worker, user subs.IMSI, b *stream.Records) {
	if len(b.Proxy)+len(b.MME)+len(b.UDR) > 0 {
		e.addUser(w, user, b)
	}
	delete(w.pending, user)
	b.Reset()
	w.spare = b
}

// directSink feeds the engine's only worker synchronously.
type directSink struct {
	e *engine
	w *worker
}

func (s directSink) Proxy(r proxylog.Record) error {
	b := s.w.bundle(r.IMSI)
	b.Proxy = append(b.Proxy, r)
	return nil
}

func (s directSink) MME(r mme.Record) error {
	b := s.w.bundle(r.IMSI)
	b.MME = append(b.MME, r)
	return nil
}

func (s directSink) UDR(r udr.Record) error {
	b := s.w.bundle(r.IMSI)
	b.UDR = append(b.UDR, r)
	return nil
}

func (s directSink) UserDone(user subs.IMSI) error {
	s.e.userDone(s.w, user)
	return nil
}

func (s directSink) User(user subs.IMSI, gather func(*stream.Records)) error {
	s.e.user(s.w, user, gather)
	return nil
}

// Batched fan-out. fanSink hands each worker its events in batches,
// cycling batchesPerWorker batches per worker through a free list, so a
// record costs an append instead of a channel operation. The free list
// bounds how far the producer runs ahead of a worker: 16 batches let it
// keep feeding the other workers while one evicts a heavy subscriber,
// where 4 batches left them idle (on a 2-CPU host, Workers=2 ran 1.2×
// faster than Workers=1 with 4 batches and 1.4–1.6× with 16).
//
// A batch is full at batchEvents events or at batchUsers whole
// subscribers, whichever comes first. A per-record event carries one
// record, but a whole subscriber carries all of theirs (about 180 on
// average, thousands for a heavy wearable owner), and a gather queued
// behind a user-major source such as the generator holds a copy of
// them. Counting a subscriber as one event would let 16 × 256
// subscribers per worker wait in flight; batchUsers keeps that to
// 16 × batchUsers, a few times the records the per-record path holds.
const (
	batchEvents      = 256
	batchUsers       = 4
	batchesPerWorker = 16
)

// Batch op codes: the event kind of one tape entry.
const (
	opProxy uint8 = iota
	opMME
	opUDR
	opUserDone
	opUser
)

// batch is a run of one worker's events in emission order: ops is the
// tape of event kinds, and each kind's payloads sit in their own slice in
// the same order. opUserDone and opUser both take the next IMSI from
// users; opUser also takes the next gather.
type batch struct {
	ops     []uint8
	recs    stream.Records
	users   []subs.IMSI
	gathers []func(*stream.Records)
}

// fanSink fans the stream out to the workers. Each subscriber's events
// go to their owner, which replays its batches in order, so a
// subscriber's events are processed in emission order by a single
// goroutine: the schedule changes with Workers, the results never do.
type fanSink struct {
	fill []*batch      // per worker: the batch being filled, nil until one is free
	work []chan *batch // per worker: full batches, in order
	free []chan *batch // per worker: replayed batches, ready to refill
}

// open returns worker w's batch being filled, taking a free one (and
// waiting for it if all are queued or replaying) when there is none.
func (s *fanSink) open(w int) *batch {
	if s.fill[w] == nil {
		s.fill[w] = <-s.free[w]
	}
	return s.fill[w]
}

// push records one event's op and hands the batch to its worker once
// full.
func (s *fanSink) push(w int, b *batch, op uint8) {
	b.ops = append(b.ops, op)
	if len(b.ops) == batchEvents || len(b.gathers) == batchUsers {
		s.work[w] <- b
		s.fill[w] = nil
	}
}

func (s *fanSink) Proxy(r proxylog.Record) error {
	w := ownerOf(r.IMSI, len(s.fill))
	b := s.open(w)
	b.recs.Proxy = append(b.recs.Proxy, r)
	s.push(w, b, opProxy)
	return nil
}

func (s *fanSink) MME(r mme.Record) error {
	w := ownerOf(r.IMSI, len(s.fill))
	b := s.open(w)
	b.recs.MME = append(b.recs.MME, r)
	s.push(w, b, opMME)
	return nil
}

func (s *fanSink) UDR(r udr.Record) error {
	w := ownerOf(r.IMSI, len(s.fill))
	b := s.open(w)
	b.recs.UDR = append(b.recs.UDR, r)
	s.push(w, b, opUDR)
	return nil
}

func (s *fanSink) UserDone(user subs.IMSI) error {
	w := ownerOf(user, len(s.fill))
	b := s.open(w)
	b.users = append(b.users, user)
	s.push(w, b, opUserDone)
	return nil
}

func (s *fanSink) User(user subs.IMSI, gather func(*stream.Records)) error {
	w := ownerOf(user, len(s.fill))
	b := s.open(w)
	b.users = append(b.users, user)
	b.gathers = append(b.gathers, gather)
	s.push(w, b, opUser)
	return nil
}

// replay applies one of w's batches in tape order and empties it. The
// gathers are cleared too, so a batch waiting on the free list keeps no
// subscriber's records or index alive.
func (e *engine) replay(w *worker, b *batch) {
	var p, m, u, d, g int
	for _, op := range b.ops {
		switch op {
		case opProxy:
			r := &b.recs.Proxy[p]
			p++
			bu := w.bundle(r.IMSI)
			bu.Proxy = append(bu.Proxy, *r)
		case opMME:
			r := &b.recs.MME[m]
			m++
			bu := w.bundle(r.IMSI)
			bu.MME = append(bu.MME, *r)
		case opUDR:
			r := &b.recs.UDR[u]
			u++
			bu := w.bundle(r.IMSI)
			bu.UDR = append(bu.UDR, *r)
		case opUserDone:
			user := b.users[d]
			d++
			e.userDone(w, user)
		case opUser:
			user := b.users[d]
			d++
			e.user(w, user, b.gathers[g])
			g++
		}
	}
	b.ops = b.ops[:0]
	b.recs.Reset()
	b.users = b.users[:0]
	clear(b.gathers)
	b.gathers = b.gathers[:0]
}

// consume drains the source through the engine. With more than one
// worker a producer thread runs the source while workers replay their
// batches; the fan-out changes scheduling only, never results.
func (e *engine) consume(src stream.Source) error {
	n := len(e.workers)
	if n == 1 {
		return src.Stream(directSink{e, e.workers[0]})
	}
	sink := &fanSink{fill: make([]*batch, n), work: make([]chan *batch, n), free: make([]chan *batch, n)}
	var wg sync.WaitGroup
	for i, w := range e.workers {
		// Each channel can hold every batch of its worker, so neither a
		// full batch's handoff nor a replayed batch's return blocks; the
		// producer waits only on an empty free list.
		sink.work[i] = make(chan *batch, batchesPerWorker)
		sink.free[i] = make(chan *batch, batchesPerWorker)
		for j := 0; j < batchesPerWorker; j++ {
			sink.free[i] <- &batch{}
		}
		wg.Add(1)
		go func(w *worker, work <-chan *batch, free chan<- *batch) {
			defer wg.Done()
			for b := range work {
				e.replay(w, b)
				free <- b
			}
		}(w, sink.work[i], sink.free[i])
	}
	err := src.Stream(sink)
	for i, b := range sink.fill {
		if b != nil && len(b.ops) > 0 {
			sink.work[i] <- b
		}
		close(sink.work[i])
	}
	wg.Wait()
	return err
}

// seal evicts every subscriber still pending after the stream ends — the
// whole population for record-major sources, nobody for user-major ones.
// Each worker evicts its own leftovers in ascending IMSI order, matching
// what a user-major source would have emitted.
func (e *engine) seal() {
	shard.Run(len(e.workers), func(i int) {
		w := e.workers[i]
		for _, user := range sortx.Keys(w.pending) {
			e.evict(w, user, w.pending[user])
		}
	})
}

// residue is one subscriber's per-user figure inputs, which finalize
// folds in IMSI order.
type residue struct {
	user subs.IMSI
	st   *userStat
}

// run drains the source, seals, merges the workers' partials into the
// first one and finalises the Results.
func (e *engine) run(src stream.Source) (*Results, error) {
	if src == nil {
		return nil, fmt.Errorf("core: nil record source")
	}
	if err := e.consume(src); err != nil {
		return nil, err
	}
	e.seal()
	// The per-subscriber residues never union into one map: they leave
	// the partials as one IMSI-sorted slice. Everything else in a partial
	// is domain-sized; each is released as it folds in, so the merge
	// holds at most one un-merged partial alongside the union.
	n := 0
	for _, w := range e.workers {
		n += len(w.acc.stats)
	}
	users := make([]residue, 0, n)
	for _, w := range e.workers {
		for user, st := range w.acc.stats {
			users = append(users, residue{user, st})
		}
		w.acc.stats = nil
	}
	sort.Slice(users, func(i, j int) bool { return users[i].user < users[j].user })
	acc := e.workers[0].acc
	for _, w := range e.workers[1:] {
		acc.merge(w.acc)
		w.acc = nil
	}
	return e.finalize(acc, users)
}

// RunStream executes the full analysis over any record stream — generator,
// decoded log files, or a live proxy tail — without ever materialising a
// whole log. Results are identical at every Workers setting, and
// identical for any source emitting the same records.
func RunStream(env Env, src stream.Source, cfg Config) (*Results, error) {
	cfg = cfg.withDefaults()
	e, err := newEngine(env, cfg)
	if err != nil {
		return nil, err
	}
	res, err := e.run(src)
	if err != nil {
		return nil, err
	}
	if res.Fig2a.WearableUsers == 0 {
		return nil, fmt.Errorf("core: no SIM-enabled wearable users identified")
	}
	return res, nil
}
