package core

import (
	"fmt"
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

// userBundle buffers records: one subscriber's until the user completes,
// or one worker batch's (below) until its worker replays it. Bundles are
// the only place the engine holds raw records; a subscriber's is evicted
// (processed into scalar accumulators and reset) at UserDone, so a
// user-major source is analysed in memory proportional to the subscriber
// population plus one in-flight user — never the log length.
type userBundle struct {
	proxy []proxylog.Record
	mme   []mme.Record
	udr   []udr.Record
}

func (b *userBundle) addProxy(r proxylog.Record) {
	//wearlint:ignore membound bundle record buffer (DESIGN.md §8): a subscriber's until UserDone, a worker batch's until replay; reset with [:0] and reused
	b.proxy = append(b.proxy, r)
}

func (b *userBundle) addMME(r mme.Record) {
	//wearlint:ignore membound bundle record buffer (DESIGN.md §8): a subscriber's until UserDone, a worker batch's until replay; reset with [:0] and reused
	b.mme = append(b.mme, r)
}

func (b *userBundle) addUDR(r udr.Record) {
	//wearlint:ignore membound bundle record buffer (DESIGN.md §8): a subscriber's until UserDone, a worker batch's until replay; reset with [:0] and reused
	b.udr = append(b.udr, r)
}

// reset empties the bundle and keeps its capacity for reuse.
func (b *userBundle) reset() {
	b.proxy = b.proxy[:0]
	b.mme = b.mme[:0]
	b.udr = b.udr[:0]
}

// workerScratch is one worker's reusable per-subscriber state: a spare
// bundle for the next subscriber its shards open, and the buffers of
// eviction and its analyzers. It is keyed by worker, not by shard: every
// buffer keeps the capacity of the largest subscriber it has served, so
// per-shard scratch would hold the largest subscriber of each of the 32
// shards at once.
type workerScratch struct {
	spare     *userBundle
	wearRecs  []proxylog.Record
	phoneRecs []proxylog.Record
	sessions  sessions.Scratch
	usages    []sessions.Usage
	mob       mobmetrics.Scratch
}

// engine is the streaming study: a stream.Sink that routes records to
// per-subscriber shard buckets and evicts each subscriber into per-shard
// figure accumulators. Each shard is owned by exactly one worker, so no
// accumulator is ever shared between goroutines.
type engine struct {
	cfg      Config
	env      Env
	resolver *appid.Resolver
	analyzer *mobmetrics.Analyzer
	detector *fingerprint.Detector

	accs    []*shardAcc
	pending []map[subs.IMSI]*userBundle
	// scratch holds one workerScratch per worker; worker w owns the
	// shards si with si % len(scratch) == w, both while consuming and
	// while sealing.
	scratch []*workerScratch
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
		accs:     make([]*shardAcc, shard.DefaultShards),
		pending:  make([]map[subs.IMSI]*userBundle, shard.DefaultShards),
		scratch:  make([]*workerScratch, min(shard.Workers(cfg.Workers), shard.DefaultShards)),
	}
	for i := 0; i < shard.DefaultShards; i++ {
		e.accs[i] = newShardAcc()
		e.pending[i] = make(map[subs.IMSI]*userBundle)
	}
	for w := range e.scratch {
		e.scratch[w] = &workerScratch{}
	}
	return e, nil
}

// shardOf routes a subscriber to their shard: the same pure IMSI hash the
// resident pipeline partitioned with, so shard populations are identical
// across sources, machines and worker counts.
func shardOf(user subs.IMSI) int {
	return int(shard.Hash64(uint64(user)) % shard.DefaultShards)
}

// scratchOf returns the scratch of the worker owning shard si.
func (e *engine) scratchOf(si int) *workerScratch {
	return e.scratch[si%len(e.scratch)]
}

func (e *engine) bundle(si int, user subs.IMSI) *userBundle {
	b := e.pending[si][user]
	if b == nil {
		sc := e.scratchOf(si)
		b, sc.spare = sc.spare, nil
		if b == nil {
			b = &userBundle{}
		}
		e.pending[si][user] = b
	}
	return b
}

// userDone evicts a completed subscriber.
func (e *engine) userDone(si int, user subs.IMSI) {
	if b := e.pending[si][user]; b != nil { // nil: user had no records
		e.evict(si, user, b)
	}
}

// evict folds a subscriber's bundle into the shard accumulator, drops the
// subscriber from pending and keeps the emptied bundle as its worker's
// spare.
func (e *engine) evict(si int, user subs.IMSI, b *userBundle) {
	sc := e.scratchOf(si)
	e.addUser(e.accs[si], user, b, sc)
	delete(e.pending[si], user)
	b.reset()
	sc.spare = b
}

// directSink feeds the engine synchronously: the one-worker path.
type directSink struct{ e *engine }

func (s directSink) Proxy(r proxylog.Record) error {
	s.e.bundle(shardOf(r.IMSI), r.IMSI).addProxy(r)
	return nil
}

func (s directSink) MME(r mme.Record) error {
	s.e.bundle(shardOf(r.IMSI), r.IMSI).addMME(r)
	return nil
}

func (s directSink) UDR(r udr.Record) error {
	s.e.bundle(shardOf(r.IMSI), r.IMSI).addUDR(r)
	return nil
}

func (s directSink) UserDone(user subs.IMSI) error {
	s.e.userDone(shardOf(user), user)
	return nil
}

// Batched fan-out. fanSink hands each worker its events in batches of up
// to batchEvents, cycling batchesPerWorker batches per worker through a
// free list, so a record costs an append instead of a channel operation.
// The free list bounds how far the producer runs ahead of a worker:
// 16 × 256 events let it keep feeding the other workers while one
// evicts a heavy subscriber, where 4 batches left them idle (on a 2-CPU
// host, Workers=2 ran 1.2× faster than Workers=1 with 4 batches and
// 1.4–1.6× with 16).
const (
	batchEvents      = 256
	batchesPerWorker = 16
)

// Batch op codes: the event kind of one tape entry.
const (
	opProxy uint8 = iota
	opMME
	opUDR
	opUserDone
)

// batch is a run of one worker's events in emission order: ops is the
// tape of event kinds, and each kind's payloads sit in their own slice in
// the same order.
type batch struct {
	ops   []uint8
	recs  userBundle
	users []subs.IMSI
}

// fanSink fans the stream out to the workers. Worker w owns shards si
// with si % workers == w and replays its batches in order, so each
// shard's event sequence is processed in emission order by a single
// goroutine: the schedule changes with Workers, the per-shard
// accumulation order never does.
type fanSink struct {
	e    *engine
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
	if len(b.ops) == batchEvents {
		s.work[w] <- b
		s.fill[w] = nil
	}
}

func (s *fanSink) Proxy(r proxylog.Record) error {
	w := shardOf(r.IMSI) % len(s.fill)
	b := s.open(w)
	b.recs.addProxy(r)
	s.push(w, b, opProxy)
	return nil
}

func (s *fanSink) MME(r mme.Record) error {
	w := shardOf(r.IMSI) % len(s.fill)
	b := s.open(w)
	b.recs.addMME(r)
	s.push(w, b, opMME)
	return nil
}

func (s *fanSink) UDR(r udr.Record) error {
	w := shardOf(r.IMSI) % len(s.fill)
	b := s.open(w)
	b.recs.addUDR(r)
	s.push(w, b, opUDR)
	return nil
}

func (s *fanSink) UserDone(user subs.IMSI) error {
	w := shardOf(user) % len(s.fill)
	b := s.open(w)
	b.users = append(b.users, user)
	s.push(w, b, opUserDone)
	return nil
}

// replay applies a batch's events in tape order and empties it.
func (e *engine) replay(b *batch) {
	var p, m, u, d int
	for _, op := range b.ops {
		switch op {
		case opProxy:
			r := &b.recs.proxy[p]
			p++
			e.bundle(shardOf(r.IMSI), r.IMSI).addProxy(*r)
		case opMME:
			r := &b.recs.mme[m]
			m++
			e.bundle(shardOf(r.IMSI), r.IMSI).addMME(*r)
		case opUDR:
			r := &b.recs.udr[u]
			u++
			e.bundle(shardOf(r.IMSI), r.IMSI).addUDR(*r)
		case opUserDone:
			user := b.users[d]
			d++
			e.userDone(shardOf(user), user)
		}
	}
	b.ops = b.ops[:0]
	b.recs.reset()
	b.users = b.users[:0]
}

// consume drains the source through the engine. With more than one
// worker a producer thread runs the source while workers replay their
// batches; the fan-out changes scheduling only, never results.
func (e *engine) consume(src stream.Source) error {
	w := len(e.scratch)
	if w == 1 {
		return src.Stream(directSink{e})
	}
	sink := &fanSink{e: e, fill: make([]*batch, w), work: make([]chan *batch, w), free: make([]chan *batch, w)}
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		// Each channel can hold every batch of its worker, so neither a
		// full batch's handoff nor a replayed batch's return blocks; the
		// producer waits only on an empty free list.
		sink.work[i] = make(chan *batch, batchesPerWorker)
		sink.free[i] = make(chan *batch, batchesPerWorker)
		for j := 0; j < batchesPerWorker; j++ {
			sink.free[i] <- &batch{}
		}
		wg.Add(1)
		go func(work <-chan *batch, free chan<- *batch) {
			defer wg.Done()
			for b := range work {
				e.replay(b)
				free <- b
			}
		}(sink.work[i], sink.free[i])
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
// Leftovers are folded in ascending IMSI order per shard, matching what a
// user-major source would have emitted. Each worker seals the shards it
// consumed for, with its own scratch.
func (e *engine) seal() {
	workers := len(e.scratch)
	shard.Run(workers, workers, func(w int) {
		for si := w; si < shard.DefaultShards; si += workers {
			for _, user := range sortx.Keys(e.pending[si]) {
				e.evict(si, user, e.pending[si][user])
			}
		}
	})
}

// run drains the source, seals, merges the shard partials in fixed shard
// order and finalises the Results.
func (e *engine) run(src stream.Source) (*Results, error) {
	if src == nil {
		return nil, fmt.Errorf("core: nil record source")
	}
	if err := e.consume(src); err != nil {
		return nil, err
	}
	e.seal()
	// The per-subscriber residues never union: finalize reaches them in
	// their per-shard maps through the shard hash. Everything else in a
	// shardAcc is domain-sized; each partial is released as it folds in,
	// so the merge holds at most one un-merged shard alongside the union.
	stats := make([]map[subs.IMSI]*userStat, len(e.accs))
	for i, a := range e.accs {
		stats[i] = a.stats
		a.stats = nil
	}
	acc := e.accs[0]
	for i, o := range e.accs[1:] {
		acc.merge(o)
		e.accs[i+1] = nil
	}
	return e.finalize(acc, stats)
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
