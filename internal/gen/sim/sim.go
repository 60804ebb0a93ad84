// Package sim orchestrates the synthetic ISP: it wires the population,
// mobility and traffic models over the radio topology and device database
// and produces the three vantage-point logs of the paper's measurement
// infrastructure (§3.1):
//
//   - an MME log: wearable registrations over the full five-month window,
//     with full sector updates (wearables and a sample of ordinary
//     handsets) during the final seven detailed weeks;
//   - a transparent-proxy log of HTTP/HTTPS transactions, retained for the
//     detailed window only, exactly as the paper's collection was;
//   - weekly per-device usage aggregates (UDRs) across the full window,
//     carrying the total volumes behind the user-level comparisons.
//
// Generation is deterministic in (Config, Seed).
package sim

import (
	"fmt"
	"slices"
	"sync"

	"wearwild/internal/geo"
	"wearwild/internal/mnet/cells"
	"wearwild/internal/mnet/devicedb"
	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/udr"
	"wearwild/internal/randx"
	"wearwild/internal/shard"
	"wearwild/internal/simtime"
	"wearwild/internal/stream"

	"wearwild/internal/gen/apps"
	"wearwild/internal/gen/mobility"
	"wearwild/internal/gen/population"
	"wearwild/internal/gen/traffic"
)

// Config bundles all generation parameters.
type Config struct {
	Seed uint64

	Population population.Config
	Cells      cells.Config

	// OrdinaryMobilitySample is how many ordinary users receive full MME
	// sector logging in the detail window (the mobility comparison
	// sample). The paper compares against all customers; we compare
	// against a sample, which normalised plots absorb.
	OrdinaryMobilitySample int

	// IncludeAppleWatch enables the what-if scenario the paper's
	// conclusion anticipates: the operator supports the SIM-enabled Apple
	// Watch Series 3, which immediately dominates wearable sales. Pair it
	// with a raised Population.MonthlyGrowth for the "sharper increase".
	IncludeAppleWatch bool

	// Workers bounds generation parallelism (0 = one worker per CPU).
	// Output is identical for any worker count: every user's stream is
	// derived independently and emitted in user order.
	Workers int
}

// DefaultConfig returns a dataset configuration that reproduces the paper
// at a laptop-friendly scale.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:                   seed,
		Population:             population.DefaultConfig(),
		Cells:                  cells.DefaultConfig(),
		OrdinaryMobilitySample: 3000,
	}
}

// SmallConfig returns a fast configuration for tests and examples.
func SmallConfig(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.Population.WearableUsers = 800
	cfg.Population.OrdinaryUsers = 2400
	cfg.Cells = cells.Config{UrbanSectors: 500, RuralSectors: 200}
	cfg.OrdinaryMobilitySample = 800
	return cfg
}

// Validate rejects inconsistent configurations.
func (c Config) Validate() error {
	if err := c.Population.Validate(); err != nil {
		return err
	}
	if c.OrdinaryMobilitySample < 0 {
		return fmt.Errorf("sim: negative OrdinaryMobilitySample")
	}
	return nil
}

// Dataset is a fully generated synthetic ISP dataset.
type Dataset struct {
	Config Config

	Country  geo.Country
	Topology *cells.Topology
	Devices  *devicedb.DB
	Catalog  *apps.Catalog
	// Population is the generation ground truth. The study pipeline never
	// reads it — it works from the logs — but validation tests compare
	// study output against it.
	Population *population.Population

	MME   mme.Log
	Proxy proxylog.Log
	UDR   udr.Log
}

// generateSubstrate builds the deterministic part of a dataset: topology,
// device DB, catalogue and population, but no logs.
func generateSubstrate(cfg Config) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := randx.New(cfg.Seed)
	country := geo.DefaultCountry()

	topo, err := cells.Build(country, cfg.Cells, root.Split("cells", 0))
	if err != nil {
		return nil, err
	}
	db := devicedb.Default()
	if cfg.IncludeAppleWatch {
		db = devicedb.DefaultWithAppleWatch()
	}
	// The long-tail catalogue carries the install-count distribution of
	// §4.3.
	catalog := apps.DefaultWithTail()
	pop, err := population.Build(cfg.Population, country, topo, db, catalog, root.Split("pop", 0))
	if err != nil {
		return nil, err
	}
	return &Dataset{
		Config:     cfg,
		Country:    country,
		Topology:   topo,
		Devices:    db,
		Catalog:    catalog,
		Population: pop,
	}, nil
}

// Generate builds the dataset. The generator sweep hands each
// subscriber's canonically ordered records to Generate in ascending user
// order; they are copied out, concatenated once at exact size and put in
// the global log orders by the stable sorts, so the dataset is
// byte-identical for any Workers setting.
func Generate(cfg Config) (*Dataset, error) {
	ds, err := generateSubstrate(cfg)
	if err != nil {
		return nil, err
	}
	gen, err := newUserGen(cfg, ds.Population, ds.Topology, ds.Catalog)
	if err != nil {
		return nil, err
	}
	outs := make([]stream.Records, len(ds.Population.Users))
	var nm, np, nu int
	err = gen.sweep(cfg.Workers, func(i int, sc *genScratch) error {
		outs[i] = sc.output()
		nm += len(sc.mme)
		np += len(sc.proxy)
		nu += len(sc.udr)
		return nil
	})
	if err != nil {
		return nil, err
	}
	ds.MME.Records = make([]mme.Record, 0, nm)
	ds.Proxy.Records = make([]proxylog.Record, 0, np)
	ds.UDR.Records = make([]udr.Record, 0, nu)
	for i := range outs {
		ds.MME.Records = append(ds.MME.Records, outs[i].MME...)
		ds.Proxy.Records = append(ds.Proxy.Records, outs[i].Proxy...)
		ds.UDR.Records = append(ds.UDR.Records, outs[i].UDR...)
	}

	ds.MME.SortByTime()
	ds.Proxy.SortByTime()
	ds.UDR.Sort()
	return ds, nil
}

// genScratch is one worker's reusable generation state: record slabs the
// per-user sweep resets and refills (the slab grammar), the fixed
// week-aggregate array that replaced the per-user pointer map, and the
// traffic model's own buffers. Each slot of the sweep's ring owns one for
// the whole population; its slabs grow to the busiest subscriber and stay
// there.
type genScratch struct {
	visits []mobility.Visit
	day    []proxylog.Record
	mme    []mme.Record
	proxy  []proxylog.Record
	udr    []udr.Record
	weeks  [simtime.StudyWeeks]udr.Record
	tr     traffic.Scratch
}

// output snapshots the slabs into exactly-sized slices that outlive the
// slot's reuse.
func (s *genScratch) output() stream.Records {
	return stream.Records{
		Proxy: append(make([]proxylog.Record, 0, len(s.proxy)), s.proxy...),
		MME:   append(make([]mme.Record, 0, len(s.mme)), s.mme...),
		UDR:   append(make([]udr.Record, 0, len(s.udr)), s.udr...),
	}
}

// userGen derives any single subscriber's complete five-month output
// independently of every other subscriber: the per-user RNG streams are
// split from the root by user index, so one sweep serves both the
// resident Generate and the record-streaming source.
type userGen struct {
	pop    *population.Population
	mob    *mobility.Generator
	tgen   *traffic.Generator
	root   *randx.Rand
	owners int
	sample int
}

func newUserGen(cfg Config, pop *population.Population, topo *cells.Topology,
	catalog *apps.Catalog) (*userGen, error) {
	mob, err := mobility.New(topo)
	if err != nil {
		return nil, err
	}
	tgen, err := traffic.New(catalog)
	if err != nil {
		return nil, err
	}
	owners := len(pop.WearableOwners())
	sample := cfg.OrdinaryMobilitySample
	if sample > len(pop.Users)-owners {
		sample = len(pop.Users) - owners
	}
	return &userGen{
		pop:    pop,
		mob:    mob,
		tgen:   tgen,
		root:   randx.New(cfg.Seed),
		owners: owners,
		sample: sample,
	}, nil
}

// genUser generates subscriber i's complete output into s's slabs: the
// wearable day sweep for owners, weekly phone UDRs for everyone
// (Fig 4(a/b) compares whole-user volumes), and the detail-window phone
// activity for ordinary users (full MME itineraries for the mobility
// sample, and the sparse proxy trickle that carries Through-Device
// companion traffic). Each record class is appended in a fixed order, so a
// subscriber's slab contents are identical however the sweep is scheduled.
func (g *userGen) genUser(i int, s *genScratch) {
	s.mme = s.mme[:0]
	s.proxy = s.proxy[:0]
	s.udr = s.udr[:0]
	u := g.pop.Users[i]
	uid := uint64(i)
	if i < g.owners {
		g.wearableDays(u, uid, s)
	}
	g.phoneWeeks(u, uid, s)
	if j := i - g.owners; j >= 0 {
		g.ordinaryDetail(u, uid, j < g.sample, s)
	}
}

// sweep generates every subscriber on up to workers goroutines and calls
// emit(i, sc) for i = 0..n-1 in ascending order, sc holding subscriber
// i's records in their per-user canonical order; sc is reused once emit
// returns. Workers pull dispatched indices and fill that subscriber's slot
// in a ring of long-lived scratches; the caller puts completions back in
// order and dispatches subscriber i+ring only after emitting i, so at
// most one ring of subscribers is in flight. The first emit error stops
// the sweep: nothing more is emitted, the workers finish the subscribers
// they hold and exit, and sweep returns the error.
func (g *userGen) sweep(workers int, emit func(i int, sc *genScratch) error) error {
	n := len(g.pop.Users)
	workers = min(shard.Workers(workers), n)
	ring := min(workers*4, n)
	slots := make([]genScratch, ring)
	// Both channels hold a whole ring, so neither a dispatch nor a
	// completion ever blocks.
	todo := make(chan int, ring)
	filled := make(chan int, ring)
	for i := 0; i < ring; i++ {
		todo <- i
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		shard.Run(workers, func(int) {
			for i := range todo {
				sc := &slots[i%ring]
				g.genUser(i, sc)
				sc.sortCanonical()
				filled <- i
			}
		})
	}()
	defer func() {
		close(todo)
		wg.Wait()
	}()

	ready := make([]bool, ring)
	for i := 0; i < n; i++ {
		for !ready[i%ring] {
			ready[(<-filled)%ring] = true
		}
		ready[i%ring] = false
		if err := emit(i, &slots[i%ring]); err != nil {
			return err
		}
		if i+ring < n {
			todo <- i + ring
		}
	}
	return nil
}

// wearableDays generates one owner's five-month wearable output.
func (g *userGen) wearableDays(u *population.User, uid uint64, s *genScratch) {
	s.weeks = [simtime.StudyWeeks]udr.Record{}

	for d := simtime.Day(0); d < simtime.StudyDays; d++ {
		if !u.WearableActiveOn(d) {
			continue
		}
		rDay := g.root.Split("wday", uid*100000+uint64(d))
		if !rDay.Bool(u.RegProb) {
			continue // wearable stayed off the cellular network today
		}
		s.visits = g.mob.AppendDayVisits(s.visits[:0], u, d, rDay.Split("mob", 0))
		if len(s.visits) == 0 {
			continue
		}

		// MME: full itinerary in the detail window, a single daily
		// attach outside it (summary collection, §3.1).
		if d.InDetailWindow() {
			s.mme = mobility.AppendRecords(s.mme, u, u.WearableIMEI, s.visits)
		} else {
			s.mme = mobility.AppendRecords(s.mme, u, u.WearableIMEI, s.visits[:1])
		}

		s.day = s.day[:0]
		s.day = g.tgen.AppendWearableDay(s.day, u, d, s.visits, rDay.Split("tx", 0), &s.tr)
		if len(s.day) == 0 {
			continue
		}
		agg := &s.weeks[d.Week()]
		if agg.Transactions == 0 {
			agg.Week, agg.IMSI, agg.IMEI = d.Week(), u.IMSI, u.WearableIMEI
		}
		for _, rec := range s.day {
			agg.Bytes += rec.Bytes()
			agg.Transactions++
		}
		if d.InDetailWindow() {
			s.proxy = append(s.proxy, s.day...)
		}
	}
	for w := simtime.Week(0); w < simtime.StudyWeeks; w++ {
		if s.weeks[w].Transactions > 0 {
			s.udr = append(s.udr, s.weeks[w])
		}
	}
}

// phoneWeeks generates the weekly phone UDRs every subscriber carries.
func (g *userGen) phoneWeeks(u *population.User, uid uint64, s *genScratch) {
	s.udr = slices.Grow(s.udr, int(simtime.StudyWeeks))[:len(s.udr)]
	for w := simtime.Week(0); w < simtime.StudyWeeks; w++ {
		rec := g.tgen.PhoneWeek(u, w, g.root.Split("pweek", uid*1000+uint64(w)))
		if rec.Bytes > 0 {
			s.udr = append(s.udr, rec)
		}
	}
}

// ordinaryDetail generates an ordinary user's detail-window phone
// activity; sampled users get full MME sector itineraries.
func (g *userGen) ordinaryDetail(u *population.User, uid uint64, sampled bool, s *genScratch) {
	detail := simtime.Detail()
	for d := detail.Start; d < detail.End; d++ {
		rDay := g.root.Split("oday", uid*100000+uint64(d))
		// Mobility sample: full phone itineraries.
		if sampled {
			s.visits = g.mob.AppendDayVisits(s.visits[:0], u, d, rDay.Split("mob", 0))
			s.mme = mobility.AppendRecords(s.mme, u, u.PhoneIMEI, s.visits)
		}
		s.proxy = g.tgen.AppendPhoneProxyDay(s.proxy, u, d, rDay.Split("px", 0))
	}
}
