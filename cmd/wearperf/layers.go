package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"wearwild/internal/core"
	"wearwild/internal/experiments"
	"wearwild/internal/gen/apps"
	"wearwild/internal/gen/sim"
	"wearwild/internal/geo"
	"wearwild/internal/mnet/cells"
	"wearwild/internal/mnet/devicedb"
	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/mnet/udr"
	"wearwild/internal/randx"
	"wearwild/internal/report"
	"wearwild/internal/simtime"
	"wearwild/internal/stream"
	"wearwild/internal/study/appid"
	"wearwild/internal/study/fingerprint"
	"wearwild/internal/study/mobmetrics"
	"wearwild/internal/study/sessions"
	"wearwild/internal/study/usermetrics"
)

// layerProbes measures each layer on its own, through its public
// functions, over the workload's dataset; it runs only in a traced run.
// newSource makes the workload's study input for the Workers sweep.
func (b *bench) layerProbes(p *prepared, newSource func() (stream.Source, error)) error {
	if !b.traced {
		return nil
	}
	root := b.tr.begin("probes", 0)
	defer b.tr.end(root)
	steps := []func(*prepared, int) error{
		b.probeGen, b.probeCells, b.probeSorts, b.probeCodec, b.probeRender,
		func(p *prepared, id int) error { return b.probeSweep(p, newSource, id) },
		b.probeKernels,
	}
	if b.workload != "collect" {
		steps = append(steps, b.proxyProbe)
	}
	for _, step := range steps {
		runtime.GC()
		if err := step(p, root); err != nil {
			return err
		}
	}
	return nil
}

// probeGen times the generator as a whole and split into its two public
// halves: the substrate (sim.NewStreamSource) and the per-subscriber
// records (StreamSource.Stream into a sink that only counts).
func (b *bench) probeGen(p *prepared, parent int) error {
	cfg := p.ds.Config
	var ds *sim.Dataset
	var src *sim.StreamSource
	var cs countSink
	a0 := allocated()
	gen, err := b.tr.timed("gen.generate", parent, func(int) (err error) {
		ds, err = sim.Generate(cfg)
		return err
	})
	if err != nil {
		return err
	}
	alloc := allocated() - a0
	substrate, err := b.tr.timed("gen.substrate", parent, func(int) (err error) {
		src, err = sim.NewStreamSource(cfg)
		return err
	})
	if err != nil {
		return err
	}
	users, err := b.tr.timed("gen.users", parent, func(int) error { return src.Stream(&cs) })
	if err != nil {
		return err
	}
	records := int64(ds.Proxy.Len() + ds.MME.Len() + ds.UDR.Len())
	b.rep.check(cs.n == records, "StreamSource emitted %d records, Generate %d", cs.n, records)

	b.rep.set("gen.generate_ms", "ms", ms(gen), 1, "sim.Generate")
	b.rep.set("gen.substrate_ms", "ms", ms(substrate), 1, "sim.NewStreamSource")
	b.rep.set("gen.users_ms", "ms", ms(users), 1, "StreamSource.Stream into a counting sink")
	b.rep.set("gen.assemble_ms", "ms", ms(gen-substrate-users), 1, "derived: generate - substrate - users")
	b.rep.set("gen.alloc_mb", "MB", float64(alloc)/(1<<20), 1, "bytes allocated by sim.Generate")
	b.rep.set("gen.records", "count", float64(records), 1, "proxy + MME + UDR")
	return nil
}

// countSink counts records and drops them.
type countSink struct{ n int64 }

func (s *countSink) Proxy(proxylog.Record) error { s.n++; return nil }
func (s *countSink) MME(mme.Record) error        { s.n++; return nil }
func (s *countSink) UDR(udr.Record) error        { s.n++; return nil }
func (s *countSink) UserDone(subs.IMSI) error    { return nil }

// probeCells times the radio topology's two lookups over a fixed seeded
// set of probe points and sector pairs.
func (b *bench) probeCells(p *prepared, parent int) error {
	topo := p.ds.Topology
	sectors := topo.Sectors()
	rng := randx.New(b.seed).Split("cells-probe", 0)
	pts := make([]geo.Point, 100_000)
	for i := range pts {
		s := sectors[rng.IntN(len(sectors))]
		pts[i] = geo.Offset(s.Pos, rng.Normal(0, 5), rng.Normal(0, 5))
	}
	pairs := make([][2]cells.SectorID, 1_000_000)
	for i := range pairs {
		pairs[i] = [2]cells.SectorID{sectors[rng.IntN(len(sectors))].ID, sectors[rng.IntN(len(sectors))].ID}
	}
	found := 0
	var km float64
	nearest, _ := b.tr.timed("cells.nearest", parent, func(int) error {
		for _, pt := range pts {
			if topo.Nearest(pt) != 0 {
				found++
			}
		}
		return nil
	})
	distance, _ := b.tr.timed("cells.distance", parent, func(int) error {
		for _, pr := range pairs {
			km += topo.DistanceKm(pr[0], pr[1])
		}
		return nil
	})
	b.rep.check(found == len(pts) && km > 0, "Nearest placed %d of %d probe points; distances summed to %g km", found, len(pts), km)
	b.rep.set("cells.nearest_ns", "ns", float64(nearest.Nanoseconds())/float64(len(pts)), len(pts), "Topology.Nearest per seeded probe point")
	b.rep.set("cells.distance_ns", "ns", float64(distance.Nanoseconds())/float64(len(pairs)), len(pairs), "Topology.DistanceKm per seeded sector pair")
	return nil
}

// probeSorts times the two logs' SortByTime on copies arranged the way
// the generator hands them over: user-major, each user's run in order.
func (b *bench) probeSorts(p *prepared, parent int) error {
	var pl proxylog.Log
	for _, recs := range inUserOrder(p.ds.Proxy.ByUser()) {
		pl.Records = append(pl.Records, recs...)
	}
	var ml mme.Log
	for _, recs := range inUserOrder(p.ds.MME.ByUser()) {
		ml.Records = append(ml.Records, recs...)
	}
	ps, _ := b.tr.timed("proxylog.sort", parent, func(int) error { pl.SortByTime(); return nil })
	msort, _ := b.tr.timed("mme.sort", parent, func(int) error { ml.SortByTime(); return nil })
	b.rep.check(pl.Sorted() && ml.Sorted(), "SortByTime left a log unsorted")
	b.rep.set("proxylog.sort_ms", "ms", ms(ps), 1, fmt.Sprintf("%d records", pl.Len()))
	b.rep.set("mme.sort_ms", "ms", ms(msort), 1, fmt.Sprintf("%d records", ml.Len()))
	return nil
}

// distinctIMSIs returns the subscribers of the three logs in ascending
// IMSI order.
func distinctIMSIs(p []proxylog.Record, m []mme.Record, u []udr.Record) []subs.IMSI {
	seen := make(map[subs.IMSI]bool)
	for _, r := range p {
		seen[r.IMSI] = true
	}
	for _, r := range m {
		seen[r.IMSI] = true
	}
	for _, r := range u {
		seen[r.IMSI] = true
	}
	out := make([]subs.IMSI, 0, len(seen))
	for imsi := range seen {
		out = append(out, imsi)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// inUserOrder returns a ByUser grouping's values in ascending IMSI order.
func inUserOrder[R any](byUser map[subs.IMSI][]R) [][]R {
	users := make([]subs.IMSI, 0, len(byUser))
	for u := range byUser {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	out := make([][]R, len(users))
	for i, u := range users {
		out[i] = byUser[u]
	}
	return out
}

// probeCodec times each log's encoder and decoder per record, and gzip
// and gunzip over all three encodings.
func (b *bench) probeCodec(p *prepared, parent int) error {
	ds := p.ds
	n := [3]int{ds.Proxy.Len(), ds.MME.Len(), ds.UDR.Len()}
	encode := [3]func(io.Writer) error{
		func(w io.Writer) error { return proxylog.WriteBinary(w, ds.Proxy.Records) },
		func(w io.Writer) error { return mme.WriteCSV(w, ds.MME.Records) },
		func(w io.Writer) error { return udr.WriteCSV(w, ds.UDR.Records) },
	}
	decode := [3]func(io.Reader, *int64) error{
		func(r io.Reader, c *int64) error {
			return proxylog.StreamBinary(r, func(proxylog.Record) error { *c++; return nil })
		},
		func(r io.Reader, c *int64) error {
			return mme.StreamCSV(r, func(mme.Record) error { *c++; return nil })
		},
		func(r io.Reader, c *int64) error {
			return udr.StreamCSV(r, func(udr.Record) error { *c++; return nil })
		},
	}
	var raw [3][]byte
	var decAlloc uint64
	for i, name := range logNames {
		var buf bytes.Buffer
		enc, err := b.tr.timed("codec."+name+"_encode", parent, func(int) error { return encode[i](&buf) })
		if err != nil {
			return err
		}
		raw[i] = buf.Bytes()
		var count int64
		a0 := allocated()
		dec, err := b.tr.timed("codec."+name+"_decode", parent, func(int) error {
			return decode[i](bytes.NewReader(raw[i]), &count)
		})
		decAlloc += allocated() - a0
		if err != nil {
			return err
		}
		b.rep.check(count == int64(n[i]), "%s decoder returned %d of %d records", name, count, n[i])
		per := float64(max(n[i], 1))
		b.rep.set("codec."+name+"_encode_ns", "ns", float64(enc.Nanoseconds())/per, n[i], "per record")
		b.rep.set("codec."+name+"_decode_ns", "ns", float64(dec.Nanoseconds())/per, n[i], "per record")
		b.rep.set("codec."+name+"_bytes_per_rec", "B", float64(len(raw[i]))/per, n[i], "uncompressed")
	}
	total := n[0] + n[1] + n[2]
	b.rep.set("codec.decode_alloc_bytes_per_rec", "B", float64(decAlloc)/float64(max(total, 1)), total, "all three decoders")

	var gz [3][]byte
	zip, err := b.tr.timed("codec.gzip", parent, func(int) (err error) {
		gz, err = gzipLogs(raw)
		return err
	})
	if err != nil {
		return err
	}
	unzip, err := b.tr.timed("codec.gunzip", parent, func(int) error {
		for i := range gz {
			zr, err := gzip.NewReader(bytes.NewReader(gz[i]))
			if err != nil {
				return err
			}
			m, err := io.Copy(io.Discard, zr)
			if err != nil {
				return err
			}
			b.rep.check(m == int64(len(raw[i])), "gunzip returned %d of %d bytes", m, len(raw[i]))
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.rep.set("codec.gzip_ms", "ms", ms(zip), 3, "all three logs")
	b.rep.set("codec.gunzip_ms", "ms", ms(unzip), 3, "all three logs")
	return nil
}

// render writes the figure report and the paper-vs-measured markdown
// into io.Discard and returns how many shape metrics landed in band.
func render(tr *tracer, parent int, res *core.Results) (reportDur, evalDur time.Duration, inBand int, err error) {
	reportDur, _ = tr.timed("render.report", parent, func(int) error {
		report.New(io.Discard, 0).All(res)
		return nil
	})
	evalDur, err = tr.timed("render.evaluate", parent, func(int) error {
		evals := experiments.Evaluate(res)
		for _, e := range evals {
			for _, m := range e.Metrics {
				if m.OK() {
					inBand++
				}
			}
		}
		return experiments.WriteMarkdown(io.Discard, evals)
	})
	return reportDur, evalDur, inBand, err
}

func (b *bench) probeRender(p *prepared, parent int) error {
	rd, ed, inBand, err := render(b.tr, parent, p.ref)
	if err != nil {
		return err
	}
	b.rep.set("render.report_ms", "ms", ms(rd), 1, "report.Renderer.All")
	b.rep.set("render.evaluate_ms", "ms", ms(ed), 1, "experiments.Evaluate + WriteMarkdown")
	b.rep.set("render.metrics_in_band", "count", float64(inBand), 1, "shape metrics inside their acceptance bands")
	return nil
}

// probeSweep runs the engine over the workload's input at one and two
// workers, alternating which goes first, and reports each median and the
// speedup. All runs must agree on the Results.
func (b *bench) probeSweep(p *prepared, newSource func() (stream.Source, error), parent int) error {
	times := map[int][]float64{}
	var digest string
	for round, order := range [][]int{{1, 2}, {2, 1}, {1, 2}, {2, 1}} {
		for _, w := range order {
			src, err := newSource()
			if err != nil {
				return err
			}
			runtime.GC()
			var sr studyRun
			if err := b.tr.do(fmt.Sprintf("engine.run_w%d", w), parent, func(int) error {
				sr, err = runStudy(p.env, src, w, false)
				return err
			}); err != nil {
				return err
			}
			times[w] = append(times[w], ms(sr.total))
			d, err := resultsDigest(sr.res)
			if err != nil {
				return err
			}
			if round == 0 && w == 1 {
				digest = d
			}
			b.rep.check(d == digest, "Workers=%d Results digest %s differs from Workers=1's %s", w, d, digest)
		}
	}
	b.rep.setTiming("engine.run_w1_ms", "ms", times[1], 1, "Workers=1")
	b.rep.setTiming("engine.run_w2_ms", "ms", times[2], 1, "Workers=2")
	b.rep.set("engine.speedup", "ratio", median(times[1])/median(times[2]), len(times[1])+len(times[2]), "run_w1 / run_w2")
	return nil
}

// probeKernels times the study's analysis kernels per subscriber, over
// the logs' ByUser groups, the way the engine's eviction calls them; and
// relates their total to the eviction time of a Workers=1 run over the
// resident logs, where every kernel runs inside UserDone.
func (b *bench) probeKernels(p *prepared, parent int) error {
	ds := p.ds
	db := ds.Devices
	resolver := appid.NewResolver(ds.Catalog)
	analyzer, err := mobmetrics.New(ds.Topology)
	if err != nil {
		return err
	}
	detector := fingerprint.NewDetector(fingerprint.DefaultSignatures())
	window := simtime.Detail()
	isWearDev := func(r mme.Record) bool { return db.IsWearable(r.IMEI) }
	isWearTx := func(r proxylog.Record) bool { return db.IsWearable(r.IMEI) }
	isRestPhone := func(r mme.Record) bool {
		m, ok := db.Lookup(r.IMEI)
		return ok && m.Class == devicedb.Smartphone
	}
	byProxy, byMME, byUDR := ds.Proxy.ByUser(), ds.MME.ByUser(), ds.UDR.ByUser()
	users := distinctIMSIs(ds.Proxy.Records, ds.MME.Records, ds.UDR.Records)

	kernels := []string{"totals", "activity", "sessionize", "attribute", "mobility", "txsectors"}
	spent := make(map[string]time.Duration, len(kernels))
	var kindCalls, serviceCalls, services int64
	var kinds [apps.NumDomainKinds]int64
	var kindTime, serviceTime time.Duration
	timeIt := func(name string, fn func()) {
		t0 := time.Now()
		fn()
		spent[name] += time.Since(t0)
	}
	id := b.tr.begin("study.kernels", parent)
	for _, u := range users {
		prx, mm, ud := byProxy[u], byMME[u], byUDR[u]
		wear := false
		for _, r := range mm {
			wear = wear || db.IsWearable(r.IMEI)
		}
		for _, r := range ud {
			wear = wear || db.IsWearable(r.IMEI)
		}
		var wearRecs []proxylog.Record
		for _, r := range prx {
			if db.IsWearable(r.IMEI) {
				wear = true
				wearRecs = append(wearRecs, r)
			}
		}
		if len(ud) > 0 {
			timeIt("totals", func() { usermetrics.TotalsFromUDR(ud, window, db.IsWearable) })
		}
		if len(wearRecs) > 0 {
			timeIt("activity", func() { usermetrics.Collect(wearRecs, nil) })
			var usages []sessions.Usage
			timeIt("sessionize", func() { usages = sessions.Sessionize(wearRecs, time.Minute) })
			timeIt("attribute", func() { resolver.Attribute(usages) })
			t0 := time.Now()
			for _, r := range wearRecs {
				kinds[resolver.KindOfHost(r.Host)]++
			}
			kindTime += time.Since(t0)
			kindCalls += int64(len(wearRecs))
		}
		if len(mm) > 0 {
			timeIt("mobility", func() {
				analyzer.Collect(mm, window, isWearDev)
				if !wear {
					analyzer.Collect(mm, window, isRestPhone)
				}
			})
			if len(wearRecs) > 0 {
				timeIt("txsectors", func() { mobmetrics.TxSectors(mm, wearRecs, isWearDev, isWearTx) })
			}
		}
		if !wear && len(prx) > 0 {
			t0 := time.Now()
			for _, r := range prx {
				if _, ok := detector.ServiceOfHost(r.Host); ok {
					services++
				}
			}
			serviceTime += time.Since(t0)
			serviceCalls += int64(len(prx))
		}
	}
	b.tr.end(id)
	var kinded int64
	for _, n := range kinds {
		kinded += n
	}
	b.rep.check(kinded == kindCalls, "KindOfHost classified %d of %d hosts", kinded, kindCalls)

	base, err := runStudy(p.env, logsSource(ds), 1, true)
	if err != nil {
		return err
	}
	userDone := base.src.sink.userDone
	total := kindTime + serviceTime
	for _, k := range kernels {
		total += spent[k]
		b.rep.set("study."+k+"_ms", "ms", ms(spent[k]), len(users), "summed over subscribers")
	}
	b.rep.set("study.kindofhost_ns", "ns", float64(kindTime.Nanoseconds())/float64(max(kindCalls, 1)), int(kindCalls), "Resolver.KindOfHost per call")
	b.rep.set("study.servicehost_ns", "ns", float64(serviceTime.Nanoseconds())/float64(max(serviceCalls, 1)), int(serviceCalls),
		fmt.Sprintf("Detector.ServiceOfHost per call, %d matched a service", services))
	b.rep.set("study.kernel_share", "ratio", float64(total)/float64(max(userDone, 1)), len(users),
		fmt.Sprintf("kernel total %.1f ms / engine.userdone %.1f ms at Workers=1 over stream.Logs", ms(total), ms(userDone)))
	return nil
}
