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

// worker is one partition of the study: the partial accumulator its
// subscribers are evicted into, a scratch bundle that whole subscribers
// are gathered into, and the buffers of eviction and its analyzers. Every
// buffer keeps the capacity of the largest subscriber it has served. A
// worker is touched by its own goroutine only, so no accumulator is ever
// shared.
//
// A bundle (stream.Records) buffers one subscriber's records until the
// subscriber completes. Bundles are the only places the engine holds raw
// records; a subscriber's bundle is evicted (processed into scalar
// accumulators and dropped) once the subscriber is finished, so a
// user-major source is analysed in memory proportional to the subscriber
// population plus the subscribers in flight — never the log length.
// TestStreamingResidency bounds that: the live heap may not grow with the
// records streamed while the engine runs (DESIGN.md §8).
type worker struct {
	acc       *partial
	scratch   stream.Records
	devs      devices
	wearRecs  []proxylog.Record
	phoneRecs []proxylog.Record
	sessions  sessions.Scratch
	usages    []sessions.Usage
	mob       mobmetrics.Scratch
}

// engine is the streaming study: a feed routes each finished subscriber
// to the worker owning them, which evicts the subscriber into its partial
// accumulator.
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
		e.workers[i] = &worker{acc: newPartial(), devs: devices{db: env.Devices}}
	}
	return e, nil
}

// ownerOf routes a subscriber to the worker that owns them: a pure IMSI
// hash, so a subscriber's records all reach one worker whatever order the
// source emits them in.
func ownerOf(user subs.IMSI, workers int) int {
	return int(shard.Hash64(uint64(user)) % uint64(workers))
}

// queuedUsers is how many finished subscribers may wait in a worker's
// queue. The depth lets the feed keep the other workers busy while one
// evicts a heavy subscriber: on a 2-CPU host, 16 made study-resident
// about 17% slower than 32 or 64, which ran within each other's noise.
// It also bounds the records in flight: a queued bundle, or the
// generator snapshot behind a queued gather, holds all of a subscriber's
// records (about 180 on average, thousands for a heavy wearable owner).
// At 64, two full queues of SmallConfig(42)'s last subscribers held
// 1.9 MB of doubled records, more than TestStreamingResidency allows.
const queuedUsers = 32

// job is one finished subscriber on the way to their owner: the bundle
// the feed buffered their records in (nil if it buffered none) and, for
// a whole subscriber, the gather that appends their records.
type job struct {
	user   subs.IMSI
	bundle *stream.Records
	gather func(*stream.Records)
}

// feed is the engine's sink. It runs on the source's goroutine and owns
// the bundles of the subscribers still open; a subscriber finishes at
// UserDone, at User, or when the source returns, and goes down their
// owner's queue as one job. Each worker takes its jobs in the order they
// were queued, so a subscriber is folded by a single goroutine in
// emission order: the schedule changes with Workers, the results never
// do.
type feed struct {
	open   map[subs.IMSI]*stream.Records
	queues []chan job
	wg     sync.WaitGroup
}

// start launches one goroutine per worker, each folding the jobs of its
// queue, and returns the feed that fills the queues.
func (e *engine) start() *feed {
	f := &feed{open: make(map[subs.IMSI]*stream.Records), queues: make([]chan job, len(e.workers))}
	for i, w := range e.workers {
		q := make(chan job, queuedUsers)
		f.queues[i] = q
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			e.work(w, q)
		}()
	}
	return f
}

// bundle returns the open bundle of user, opening a fresh one if there
// is none. Bundles are not recycled: a reused bundle would keep the
// capacity of the heaviest subscriber it served, which
// TestStreamingResidency's per-record mode reads as state sized by the
// log.
func (f *feed) bundle(user subs.IMSI) *stream.Records {
	b := f.open[user]
	if b == nil {
		b = &stream.Records{}
		f.open[user] = b
	}
	return b
}

func (f *feed) Proxy(r proxylog.Record) error {
	b := f.bundle(r.IMSI)
	b.Proxy = append(b.Proxy, r)
	return nil
}

func (f *feed) MME(r mme.Record) error {
	b := f.bundle(r.IMSI)
	b.MME = append(b.MME, r)
	return nil
}

func (f *feed) UDR(r udr.Record) error {
	b := f.bundle(r.IMSI)
	b.UDR = append(b.UDR, r)
	return nil
}

func (f *feed) UserDone(user subs.IMSI) error {
	if b := f.open[user]; b != nil { // nil: the subscriber sent no records
		f.queue(user, b, nil)
	}
	return nil
}

func (f *feed) User(user subs.IMSI, gather func(*stream.Records)) error {
	f.queue(user, f.open[user], gather)
	return nil
}

// queue closes user's bundle and sends the subscriber to their owner,
// waiting while the owner's queue is full.
func (f *feed) queue(user subs.IMSI, b *stream.Records, gather func(*stream.Records)) {
	delete(f.open, user)
	f.queues[ownerOf(user, len(f.queues))] <- job{user, b, gather}
}

// flush queues every subscriber still open in ascending IMSI order — the
// whole population for record-major sources, nobody for user-major ones
// — so each worker folds its leftovers in the order a user-major source
// would have emitted them.
func (f *feed) flush() {
	for _, user := range sortx.Keys(f.open) {
		f.queue(user, f.open[user], nil)
	}
}

// stop closes the queues and waits until every worker has folded its
// last job.
func (f *feed) stop() {
	for _, q := range f.queues {
		close(q)
	}
	f.wg.Wait()
}

// work folds w's queued subscribers until the queue closes. A job's
// gather appends into the job's bundle, or into w's scratch when the feed
// buffered nothing for the subscriber. An empty bundle (a gather that
// brought no records) leaves no residue, as a UserDone for a subscriber
// without records does not.
func (e *engine) work(w *worker, queue <-chan job) {
	for j := range queue {
		b := j.bundle
		if b == nil {
			b = &w.scratch
		}
		if j.gather != nil {
			j.gather(b)
		}
		if len(b.Proxy)+len(b.MME)+len(b.UDR) > 0 {
			e.addUser(w, j.user, b)
		}
		w.scratch.Reset()
	}
}

// consume drains the source through the feed and, if the source
// succeeded, queues the subscribers it left open; it returns once every
// worker has stopped, whether the source failed or not.
func (e *engine) consume(src stream.Source) error {
	f := e.start()
	err := src.Stream(f)
	if err == nil {
		f.flush()
	}
	f.stop()
	return err
}

// residue is one subscriber's per-user figure inputs, which finalize
// folds in IMSI order.
type residue struct {
	user subs.IMSI
	st   *userStat
}

// run drains the source, merges the workers' partials into the first
// one and finalises the Results.
func (e *engine) run(src stream.Source) (*Results, error) {
	if src == nil {
		return nil, fmt.Errorf("core: nil record source")
	}
	if err := e.consume(src); err != nil {
		return nil, err
	}
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
