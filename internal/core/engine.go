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

// userBundle buffers one subscriber's records until the user completes.
// Bundles are the only place the engine holds raw records; they are evicted
// (processed into scalar accumulators and deleted) at UserDone, so a
// user-major source is analysed in memory proportional to the subscriber
// population plus one in-flight user — never the log length.
type userBundle struct {
	proxy []proxylog.Record
	mme   []mme.Record
	udr   []udr.Record
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
	}
	for i := 0; i < shard.DefaultShards; i++ {
		e.accs[i] = newShardAcc()
		e.pending[i] = make(map[subs.IMSI]*userBundle)
	}
	return e, nil
}

// shardOf routes a subscriber to their shard: the same pure IMSI hash the
// resident pipeline partitioned with, so shard populations are identical
// across sources, machines and worker counts.
func (e *engine) shardOf(user subs.IMSI) int {
	return int(shard.Hash64(uint64(user)) % shard.DefaultShards)
}

func (e *engine) bundle(si int, user subs.IMSI) *userBundle {
	b := e.pending[si][user]
	if b == nil {
		b = &userBundle{}
		e.pending[si][user] = b
	}
	return b
}

// Record handlers. Each runs on the goroutine owning the record's shard.

func (e *engine) proxy(si int, r proxylog.Record) {
	b := e.bundle(si, r.IMSI)
	//wearlint:ignore membound per-subscriber bundle is the DESIGN.md §8 bounded buffer, evicted at UserDone
	b.proxy = append(b.proxy, r)
}

func (e *engine) mme(si int, r mme.Record) {
	b := e.bundle(si, r.IMSI)
	//wearlint:ignore membound per-subscriber bundle is the DESIGN.md §8 bounded buffer, evicted at UserDone
	b.mme = append(b.mme, r)
}

func (e *engine) udr(si int, r udr.Record) {
	b := e.bundle(si, r.IMSI)
	//wearlint:ignore membound per-subscriber bundle is the DESIGN.md §8 bounded buffer, evicted at UserDone
	b.udr = append(b.udr, r)
}

// userDone evicts a completed subscriber: their bundle folds into the
// shard accumulator and the records are released.
func (e *engine) userDone(si int, user subs.IMSI) {
	b := e.pending[si][user]
	if b == nil {
		return // user had no records
	}
	e.addUser(e.accs[si], user, b)
	delete(e.pending[si], user)
}

// directSink feeds the engine synchronously: the Workers <= 1 path.
type directSink struct{ e *engine }

func (s directSink) Proxy(r proxylog.Record) error {
	s.e.proxy(s.e.shardOf(r.IMSI), r)
	return nil
}

func (s directSink) MME(r mme.Record) error {
	s.e.mme(s.e.shardOf(r.IMSI), r)
	return nil
}

func (s directSink) UDR(r udr.Record) error {
	s.e.udr(s.e.shardOf(r.IMSI), r)
	return nil
}

func (s directSink) UserDone(user subs.IMSI) error {
	s.e.userDone(s.e.shardOf(user), user)
	return nil
}

// shardMsg is one routed stream event.
type shardMsg struct {
	kind  uint8 // 0 proxy, 1 mme, 2 udr, 3 userDone
	si    int
	proxy proxylog.Record
	mme   mme.Record
	udr   udr.Record
	user  subs.IMSI
}

// fanSink fans the stream out to per-worker channels. Worker w owns shards
// si with si % workers == w, so each shard's event sequence is processed in
// emission order by a single goroutine: the schedule changes with Workers,
// the per-shard accumulation order never does.
type fanSink struct {
	e       *engine
	workers int
	chans   []chan shardMsg
}

func (s *fanSink) send(m shardMsg) error {
	//wearlint:ignore membound bounded worker-channel handoff; the owning shard goroutine folds the record and frees it (DESIGN.md §8)
	s.chans[m.si%s.workers] <- m
	return nil
}

func (s *fanSink) Proxy(r proxylog.Record) error {
	return s.send(shardMsg{kind: 0, si: s.e.shardOf(r.IMSI), proxy: r})
}

func (s *fanSink) MME(r mme.Record) error {
	return s.send(shardMsg{kind: 1, si: s.e.shardOf(r.IMSI), mme: r})
}

func (s *fanSink) UDR(r udr.Record) error {
	return s.send(shardMsg{kind: 2, si: s.e.shardOf(r.IMSI), udr: r})
}

func (s *fanSink) UserDone(user subs.IMSI) error {
	return s.send(shardMsg{kind: 3, si: s.e.shardOf(user), user: user})
}

func (e *engine) handle(m shardMsg) {
	switch m.kind {
	case 0:
		e.proxy(m.si, m.proxy)
	case 1:
		e.mme(m.si, m.mme)
	case 2:
		e.udr(m.si, m.udr)
	case 3:
		e.userDone(m.si, m.user)
	}
}

// consume drains the source through the engine. With Workers > 1 a
// producer thread runs the source while workers drain their shard
// channels; the fan-out changes scheduling only, never results.
func (e *engine) consume(src stream.Source) error {
	w := shard.Workers(e.cfg.Workers)
	if w > shard.DefaultShards {
		w = shard.DefaultShards
	}
	if w <= 1 {
		return src.Stream(directSink{e})
	}
	sink := &fanSink{e: e, workers: w, chans: make([]chan shardMsg, w)}
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		sink.chans[i] = make(chan shardMsg, 512)
		wg.Add(1)
		go func(ch chan shardMsg) {
			defer wg.Done()
			for m := range ch {
				e.handle(m)
			}
		}(sink.chans[i])
	}
	err := src.Stream(sink)
	for _, ch := range sink.chans {
		close(ch)
	}
	wg.Wait()
	return err
}

// seal evicts every subscriber still pending after the stream ends — the
// whole population for record-major sources, nobody for user-major ones.
// Leftovers are folded in ascending IMSI order per shard, matching what a
// user-major source would have emitted; shards seal in parallel.
func (e *engine) seal() {
	shard.Run(shard.DefaultShards, shard.Workers(e.cfg.Workers), func(si int) {
		for _, user := range sortx.Keys(e.pending[si]) {
			e.addUser(e.accs[si], user, e.pending[si][user])
			delete(e.pending[si], user)
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
