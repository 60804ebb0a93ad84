package main

import (
	"bufio"
	"bytes"
	"crypto/tls"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wearwild/internal/core"
	"wearwild/internal/mnet/httplog"
	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/netproxy"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/replay"
	"wearwild/internal/mnet/sni"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/randx"
	"wearwild/internal/shard"
	"wearwild/internal/stream"
)

// Live-path parameters. Flow volumes are clamped so the replay measures
// the proxy's fixed cost per flow, which dominates for the small
// transactions wearables make, rather than bulk copying.
const (
	maxUp   = 16 << 10
	maxDown = 64 << 10
	// directEvery sends every n-th flow of a client straight to the
	// origin: those flows are the baseline for the latency the proxy adds.
	directEvery = 10
	// originSources is how many loopback aliases the proxy's dials to the
	// origin rotate over. The proxy closes its origin leg first, so each
	// dial leaves a TIME_WAIT entry; one source address would run out of
	// ephemeral ports (32768-60999) within seconds.
	originSources = 64
	tailBuffer    = 1024
	flowTimeout   = 10 * time.Second
	// collectFlows is how many flows one collect pass replays: the first
	// proxy records of the dataset in time order, about a second of replay.
	collectFlows = 8000
	// probeFlows is the replay length when a non-collect workload
	// measures the proxy layer for its traced run.
	probeFlows = 4000
)

// clients is the size of the replay's closed loop: two, at most one per CPU.
var clients = min(2, runtime.NumCPU())

// clientOf returns the client that sends rec: each client owns the
// subscribers the IMSI hash assigns it.
func clientOf(rec proxylog.Record) int {
	return int(shard.Hash64(uint64(rec.IMSI)) % uint64(clients))
}

// zeros is the read-only payload every upload and download is cut from.
var zeros = make([]byte, maxDown)

// identity names one device of one subscriber; each gets its own client
// address, so the proxy's Identify hook can map the address back to it.
type identity struct {
	imsi subs.IMSI
	imei imei.IMEI
}

// flowKey matches a logged record to the flow that produced it.
type flowKey struct {
	imsi   subs.IMSI
	scheme proxylog.Scheme
	host   string
}

// liveInputs is the collect workload's replay script: the records to
// send in time order, which of them go straight to the origin, one
// genuine ClientHello per HTTPS host, and the loopback alias of every
// subscriber device.
type liveInputs struct {
	flows    []proxylog.Record
	direct   []bool // direct[i]: flows[i] bypasses the proxy
	users    int    // distinct subscribers among the proxied flows
	hellos   map[string][]byte
	clientIP map[identity]net.IP
	byIP     map[[4]byte]netproxy.Identity
}

func clamp(v, hi int64) int64 { return min(max(v, 0), hi) }

// alias returns the i-th loopback address of a /16 block inside 127/8;
// Linux answers the whole block on lo without configuration.
func alias(block byte, i int) net.IP {
	return net.IPv4(127, block, byte(i>>8), byte(i))
}

// buildInputs prepares everything a client needs to replay flows, which
// are proxy records in time order.
func buildInputs(flows []proxylog.Record, seed uint64) (*liveInputs, error) {
	in := &liveInputs{
		flows:    flows,
		direct:   make([]bool, len(flows)),
		hellos:   make(map[string][]byte),
		clientIP: make(map[identity]net.IP),
		byIP:     make(map[[4]byte]netproxy.Identity),
	}
	// Every client sends each tenth of its own flows direct.
	sent := make([]int, clients)
	proxiedUsers := make(map[subs.IMSI]bool)
	for i, r := range flows {
		c := clientOf(r)
		in.direct[i] = sent[c]%directEvery == directEvery-1
		sent[c]++
		if !in.direct[i] {
			proxiedUsers[r.IMSI] = true
		}
	}
	in.users = len(proxiedUsers)
	var ids []identity
	var hosts []string
	for _, r := range in.flows {
		id := identity{r.IMSI, r.IMEI}
		if _, ok := in.clientIP[id]; !ok {
			in.clientIP[id] = nil
			ids = append(ids, id)
		}
		if _, ok := in.hellos[r.Host]; !ok && r.Scheme == proxylog.HTTPS {
			in.hellos[r.Host] = nil
			hosts = append(hosts, r.Host)
		}
	}
	if len(ids) >= 1<<16-1 {
		return nil, fmt.Errorf("%d subscriber devices exceed the client alias block", len(ids))
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].imsi != ids[j].imsi {
			return ids[i].imsi < ids[j].imsi
		}
		return ids[i].imei < ids[j].imei
	})
	for i, id := range ids {
		ip := alias(1, i+1)
		in.clientIP[id] = ip
		in.byIP[[4]byte(ip.To4())] = netproxy.Identity{IMSI: id.imsi, IMEI: id.imei}
	}
	sort.Strings(hosts)
	rnd := randReader{randx.New(seed).Split("hello", 0)}
	for _, h := range hosts {
		hello, err := captureHello(h, rnd)
		if err != nil {
			return nil, err
		}
		in.hellos[h] = hello
	}
	return in, nil
}

// randReader adapts the seeded generator to the io.Reader crypto/tls draws
// its client random and key shares from.
type randReader struct{ r *randx.Rand }

func (rr randReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(rr.r.Uint64())
	}
	return len(p), nil
}

// recordConn is a net.Conn that keeps what is written to it and reports
// EOF on read, so a TLS client handshake against it stops right after
// the ClientHello.
type recordConn struct{ buf []byte }

func (c *recordConn) Read([]byte) (int, error)         { return 0, io.EOF }
func (c *recordConn) Write(p []byte) (int, error)      { c.buf = append(c.buf, p...); return len(p), nil }
func (c *recordConn) Close() error                     { return nil }
func (c *recordConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *recordConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *recordConn) SetDeadline(time.Time) error      { return nil }
func (c *recordConn) SetReadDeadline(time.Time) error  { return nil }
func (c *recordConn) SetWriteDeadline(time.Time) error { return nil }

// captureHello records the ClientHello crypto/tls sends for host. The
// handshake fails at its first read, by design.
func captureHello(host string, rnd io.Reader) ([]byte, error) {
	rc := &recordConn{}
	herr := tls.Client(rc, &tls.Config{
		ServerName:       host,
		Rand:             rnd,
		MinVersion:       tls.VersionTLS12,
		CurvePreferences: []tls.CurveID{tls.X25519, tls.CurveP256},
	}).Handshake()
	info, err := sni.Parse(rc.buf)
	if err != nil || info.ServerName != host {
		return nil, fmt.Errorf("capturing ClientHello for %q: parse %v, handshake %v", host, err, herr)
	}
	return rc.buf, nil
}

// firstFlight is what a client sends before its payload: the ClientHello
// for HTTPS, the request head for HTTP.
func (in *liveInputs) firstFlight(r proxylog.Record) []byte {
	if r.Scheme == proxylog.HTTPS {
		return in.hellos[r.Host]
	}
	path := r.Path
	if path == "" {
		path = "/"
	}
	return []byte("GET " + path + " HTTP/1.1\r\nHost: " + r.Host + "\r\n\r\n")
}

// rig is a running live pipeline: a cleartext origin, the transparent
// proxy in front of it, and a study fed from the proxy's log through a
// stream.Tail.
type rig struct {
	in       *liveInputs
	originLn net.Listener
	proxyLn  net.Listener
	proxy    *netproxy.Proxy
	tail     *stream.Tail
	study    chan liveStudy
	wg       sync.WaitGroup
	nextSrc  atomic.Uint64

	dialNs, dials atomic.Int64
	feedWaitNs    atomic.Int64
	// activeMax is the most connections the proxy had in flight, read as
	// each proxied flow sent its request.
	activeMax atomic.Uint64

	mu       sync.Mutex // guards the fields below
	pending  map[flowKey][]proxylog.Record
	log      bytes.Buffer
	enc      *proxylog.Encoder
	fed      multiset
	encodeNs int64
	misses   int
	measured int64 // downlink bytes the proxy counted
	wanted   int64 // downlink bytes the clients asked for
}

type liveStudy struct {
	run studyRun
	err error
}

// startRig starts the origin, the proxy and the live study. perRecord
// turns on the per-record timing of the study's input.
func startRig(in *liveInputs, env core.Env, perRecord bool) (*rig, error) {
	r := &rig{in: in, tail: stream.NewTail(tailBuffer), study: make(chan liveStudy, 1), pending: make(map[flowKey][]proxylog.Record)}
	r.enc = proxylog.NewEncoder(&r.log)
	var err error
	if r.originLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	if r.proxyLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		_ = r.originLn.Close()
		return nil, err
	}
	originAddr := r.originLn.Addr().String()
	r.proxy, err = netproxy.New(netproxy.Config{
		Dial: func(string, bool) (net.Conn, error) {
			src := alias(3, int(r.nextSrc.Add(1)%originSources)+1)
			d := net.Dialer{LocalAddr: &net.TCPAddr{IP: src}, Timeout: flowTimeout}
			t0 := time.Now()
			c, err := d.Dial("tcp", originAddr)
			r.dialNs.Add(time.Since(t0).Nanoseconds())
			r.dials.Add(1)
			return c, err
		},
		Identify: func(a net.Addr) netproxy.Identity {
			if ta, ok := a.(*net.TCPAddr); ok {
				if ip := ta.IP.To4(); ip != nil {
					return in.byIP[[4]byte(ip)]
				}
			}
			return netproxy.Identity{}
		},
		Log: r.logRecord,
	})
	if err != nil {
		_ = r.originLn.Close()
		_ = r.proxyLn.Close()
		return nil, err
	}
	r.wg.Add(3)
	go func() {
		defer r.wg.Done()
		r.serveOrigin()
	}()
	go func() {
		defer r.wg.Done()
		_ = r.proxy.Serve(r.proxyLn)
	}()
	go func() {
		defer r.wg.Done()
		sr, err := runStudy(env, r.tail, 0, perRecord)
		r.study <- liveStudy{sr, err}
	}()
	return r, nil
}

// serveOrigin accepts until the listener closes. Each connection reads
// the client's bytes to EOF, takes the last eight as the download size,
// and answers with that many bytes.
func (r *rig) serveOrigin() {
	for {
		c, err := r.originLn.Accept()
		if err != nil {
			return
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer c.Close()
			_ = c.SetDeadline(time.Now().Add(flowTimeout))
			var tail [8]byte
			buf := make([]byte, 16<<10)
			for {
				n, err := c.Read(buf)
				if n >= 8 {
					copy(tail[:], buf[n-8:n])
				} else if n > 0 {
					copy(tail[:], tail[n:])
					copy(tail[8-n:], buf[:n])
				}
				if err == io.EOF {
					break
				}
				if err != nil {
					return
				}
			}
			want := clamp(int64(binary.BigEndian.Uint64(tail[:])), maxDown)
			_, _ = c.Write(zeros[:want])
		}()
	}
}

// logRecord is the proxy's Log hook. It restores the ground truth the
// wire cannot carry (time, volumes, path, duration) from the sent record,
// matched first-in first-out per (IMSI, scheme, host); encodes it into the
// collection log; and feeds it to the live study outside the lock.
func (r *rig) logRecord(rec proxylog.Record) {
	key := flowKey{rec.IMSI, rec.Scheme, rec.Host}
	r.mu.Lock()
	q := r.pending[key]
	if len(q) == 0 {
		r.misses++
		r.mu.Unlock()
		return
	}
	sent := q[0]
	if len(q) == 1 {
		delete(r.pending, key)
	} else {
		r.pending[key] = q[1:]
	}
	r.measured += rec.BytesDown
	r.wanted += clamp(sent.BytesDown, maxDown)
	rec.Time, rec.Path, rec.Duration = sent.Time, sent.Path, sent.Duration
	rec.BytesUp, rec.BytesDown = sent.BytesUp, sent.BytesDown
	t0 := time.Now()
	err := r.enc.Encode(rec)
	r.encodeNs += time.Since(t0).Nanoseconds()
	if err != nil {
		r.misses++
	}
	r.fed.add(rec)
	r.mu.Unlock()

	t1 := time.Now()
	r.tail.Feed(rec)
	r.feedWaitNs.Add(time.Since(t1).Nanoseconds())
}

// expect registers a proxied flow's record before it is sent.
func (r *rig) expect(rec proxylog.Record) {
	key := flowKey{rec.IMSI, rec.Scheme, rec.Host}
	r.mu.Lock()
	r.pending[key] = append(r.pending[key], rec)
	r.mu.Unlock()
}

// flow sends one record's connection — straight to the origin or through
// the proxy — and returns its latency from the start of the dial to EOF.
func (r *rig) flow(rec proxylog.Record, direct bool) (time.Duration, error) {
	down := clamp(rec.BytesDown, maxDown)
	var trailer [8]byte
	binary.BigEndian.PutUint64(trailer[:], uint64(down))
	target := r.proxyLn.Addr().String()
	if direct {
		target = r.originLn.Addr().String()
	} else {
		r.expect(rec)
	}
	d := net.Dialer{LocalAddr: &net.TCPAddr{IP: r.in.clientIP[identity{rec.IMSI, rec.IMEI}]}, Timeout: flowTimeout}
	t0 := time.Now()
	c, err := d.Dial("tcp", target)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	_ = c.SetDeadline(t0.Add(flowTimeout))
	bufs := net.Buffers{r.in.firstFlight(rec), zeros[:clamp(rec.BytesUp, maxUp)], trailer[:]}
	if _, err := bufs.WriteTo(c); err != nil {
		return 0, err
	}
	if !direct {
		storeMax(&r.activeMax, r.proxy.Counters().Active)
	}
	if tc, ok := c.(*net.TCPConn); ok {
		if err := tc.CloseWrite(); err != nil {
			return 0, err
		}
	}
	n, err := io.Copy(io.Discard, c)
	lat := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if n != down {
		return 0, fmt.Errorf("flow to %s: got %d of %d bytes", rec.Host, n, down)
	}
	return lat, nil
}

// clientOut is what one client measured.
type clientOut struct {
	proxied, direct []float64 // latencies in microseconds
	sent            []proxylog.Record
	errs            int
	firstErr        error
}

// replayFlows runs the closed loop: each client sends the flows of the
// subscribers it owns in time order, one at a time.
func (r *rig) replayFlows() []clientOut {
	outs := make([]clientOut, clients)
	var wg sync.WaitGroup
	for c := range outs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			for i, rec := range r.in.flows {
				if clientOf(rec) != c {
					continue
				}
				direct := r.in.direct[i]
				lat, err := r.flow(rec, direct)
				switch {
				case err != nil:
					out.errs++
					if out.firstErr == nil {
						out.firstErr = err
					}
				case direct:
					out.direct = append(out.direct, float64(lat.Nanoseconds())/1e3)
				default:
					out.proxied = append(out.proxied, float64(lat.Nanoseconds())/1e3)
					out.sent = append(out.sent, rec)
				}
			}
		}(c)
	}
	wg.Wait()
	return outs
}

// stop shuts the rig down in pipeline order — proxy (draining every
// handler, so every Log call has returned), then the tail, then the
// origin — and returns the live study with the time from Tail.Close to
// its Results.
func (r *rig) stop() (liveStudy, time.Duration, netproxy.Counters) {
	_ = r.proxy.Close()
	ctr := r.proxy.Counters()
	closed := time.Now()
	r.tail.Close()
	ls := <-r.study
	lag := time.Since(closed)
	_ = r.originLn.Close()
	r.wg.Wait()
	return ls, lag, ctr
}

// multiset is an order-independent digest of a set of records: their
// count and the sum of their hashes.
type multiset struct {
	n   int
	sum uint64
}

func (m *multiset) add(r proxylog.Record) {
	h := fnv.New64a()
	var b []byte
	b = binary.AppendVarint(b, r.Time.UnixMilli())
	b = binary.AppendUvarint(b, uint64(r.IMSI))
	b = binary.AppendUvarint(b, uint64(r.IMEI))
	b = append(b, byte(r.Scheme), byte(r.Drop))
	b = binary.AppendVarint(b, r.BytesUp)
	b = binary.AppendVarint(b, r.BytesDown)
	b = binary.AppendVarint(b, r.Duration.Milliseconds())
	b = append(b, r.Host...)
	b = append(b, 0)
	b = append(b, r.Path...)
	_, _ = h.Write(b)
	m.n++
	m.sum += h.Sum64()
}

// liveResult is one replay's measurements.
type liveResult struct {
	seconds      float64   // of replay, from the first dial to the last EOF
	proxied      []float64 // proxied flow latencies, microseconds
	direct       []float64 // direct flow latencies, microseconds
	flowErrs     int
	sent         []proxylog.Record // the proxied flows' records
	activeMax    uint64
	lag          time.Duration
	study        studyRun
	counters     netproxy.Counters
	log          []byte   // the encoded collection log
	fed          multiset // the records fed to the tail
	misses       int      // logged records that matched no sent flow or failed to encode
	logged       int      // records in the log, once verified
	encodeNs     float64
	feedWaitMs   float64
	dialUs       float64
	downDeltaPct float64
}

// live replays the inputs once through a fresh rig — origin, proxy, tail
// and live study — and stops it, so the live Results are in when it
// returns. Every flow counts on the report; verifyLive checks the rest.
func (b *bench) live(in *liveInputs, env core.Env, perRecord bool) (*liveResult, error) {
	r, err := startRig(in, env, perRecord)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	outs := r.replayFlows()
	lr := &liveResult{seconds: time.Since(t0).Seconds()}
	ls, lag, ctr := r.stop()
	lr.lag, lr.counters, lr.activeMax = lag, ctr, r.activeMax.Load()
	for _, o := range outs {
		lr.proxied = append(lr.proxied, o.proxied...)
		lr.direct = append(lr.direct, o.direct...)
		lr.sent = append(lr.sent, o.sent...)
		lr.flowErrs += o.errs
		b.rep.attempted += len(o.proxied) + len(o.direct) + o.errs
		b.rep.failed += o.errs
		if o.firstErr != nil {
			fmt.Fprintf(os.Stderr, "wearperf: %d flows failed, the first with: %v\n", o.errs, o.firstErr)
		}
	}
	if ls.err != nil {
		return nil, fmt.Errorf("live study: %w", ls.err)
	}
	lr.study = ls.run

	// Every handler has exited, so the fields logRecord writes are final.
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.enc.Flush(); err != nil {
		return nil, fmt.Errorf("flushing the collection log: %w", err)
	}
	lr.log, lr.fed, lr.misses = r.log.Bytes(), r.fed, r.misses
	if r.wanted > 0 {
		lr.downDeltaPct = 100 * float64(r.measured-r.wanted) / float64(r.wanted)
	}
	lr.encodeNs = float64(r.encodeNs) / float64(max(r.fed.n, 1))
	lr.feedWaitMs = float64(r.feedWaitNs.Load()) / 1e6
	lr.dialUs = float64(r.dialNs.Load()) / 1e3 / float64(max(r.dials.Load(), 1))
	return lr, nil
}

// verifyLive checks what one replay collected against what it sent: no
// flow failed, the proxy relayed every proxied flow and dropped none,
// replay.Verify matches every host, the collection log holds exactly the
// records fed to the tail, and the live study counts exactly the wearable
// subscribers replayed.
func verifyLive(lr *liveResult, env core.Env) error {
	logged, err := proxylog.ReadBinary(bytes.NewReader(lr.log))
	if err != nil {
		return fmt.Errorf("decoding the collection log: %w", err)
	}
	lr.logged = len(logged)
	var got multiset
	for _, rec := range logged {
		got.add(rec)
	}
	wearSubs := make(map[subs.IMSI]bool)
	for _, rec := range lr.sent {
		if rec.IMSI != 0 && env.Devices.IsWearable(rec.IMEI) {
			wearSubs[rec.IMSI] = true
		}
	}
	fid := replay.Verify(lr.sent, logged)
	ctr, n := lr.counters, len(lr.sent)
	switch {
	case lr.flowErrs > 0:
		return fmt.Errorf("%d flows failed", lr.flowErrs)
	case ctr.Relayed != uint64(n):
		return fmt.Errorf("proxy relayed %d flows, clients completed %d", ctr.Relayed, n)
	case ctr.Dropped() != 0:
		return fmt.Errorf("proxy dropped %d flows", ctr.Dropped())
	case lr.misses != 0:
		return fmt.Errorf("%d logged records matched no sent flow or failed to encode", lr.misses)
	case fid.HostMatches != n:
		return fmt.Errorf("replay.Verify matched %d hosts of %d flows", fid.HostMatches, n)
	case got != lr.fed || got.n != n:
		return fmt.Errorf("collection log holds %d records (digest %x), the tail was fed %d (digest %x), %d flows were sent",
			got.n, got.sum, lr.fed.n, lr.fed.sum, n)
	case lr.study.res.Fig2a.WearableUsers != len(wearSubs):
		return fmt.Errorf("live study found %d wearable users, %d were replayed", lr.study.res.Fig2a.WearableUsers, len(wearSubs))
	}
	return nil
}

// runCollect: the live path. Set-up generates the dataset and captures a
// ClientHello per HTTPS host of the flows to replay. Each pass replays the
// flows through a fresh origin, proxy, tail and live study, and ends when
// the live Results are in; a traced pass also times the study's input per
// record.
func runCollect(b *bench) error {
	var in *liveInputs
	p, err := b.setup("half", false, 0, func(p *prepared, parent int) error {
		return b.tr.do("proxy.inputs", parent, func(int) error {
			recs := p.ds.Proxy.Records
			var err error
			in, err = buildInputs(recs[:min(len(recs), collectFlows)], b.seed)
			return err
		})
	})
	if err != nil {
		return err
	}
	var last, lastTraced *liveResult
	pass := func(tr *tracer, parent int) (passStats, error) {
		var lr *liveResult
		err := tr.do("collect.replay", parent, func(int) error {
			var err error
			lr, err = b.live(in, p.env, tr != nil)
			return err
		})
		if err != nil {
			return passStats{}, err
		}
		if tr == nil {
			last = lr
		} else {
			lastTraced = lr
		}
		return passStats{records: int64(len(in.flows)), study: lr.study, verify: func() error { return verifyLive(lr, p.env) }}, nil
	}
	if err := b.measurePasses(pass, p.records(), in.users); err != nil {
		return err
	}
	if !b.traced {
		return nil
	}
	if err := b.proxyMetrics(last, in); err != nil {
		return err
	}
	return b.layerProbes(p, func() (stream.Source, error) {
		return &stream.Readers{ProxyBinary: bytes.NewReader(lastTraced.log)}, nil
	})
}

// proxyProbe measures the proxy layer for a workload that does not
// exercise it: a replay of the dataset's first probeFlows records.
func (b *bench) proxyProbe(p *prepared, parent int) error {
	return b.tr.do("proxy.probe", parent, func(int) error {
		recs := p.ds.Proxy.Records
		in, err := buildInputs(recs[:min(len(recs), probeFlows)], b.seed)
		if err != nil {
			return err
		}
		lr, err := b.live(in, p.env, false)
		if err != nil {
			return err
		}
		err = verifyLive(lr, p.env)
		b.rep.check(err == nil, "proxy probe: %v", err)
		return b.proxyMetrics(lr, in)
	})
}

// proxyMetrics reports the proxy layer from one replay, and the cost of
// the proxy's two first-flight parsers over the replay's inputs.
func (b *bench) proxyMetrics(lr *liveResult, in *liveInputs) error {
	sp, sd := sortedCopy(lr.proxied), sortedCopy(lr.direct)
	b.rep.set("proxy.flows_per_s", "1/s", float64(len(sp))/lr.seconds, len(sp),
		fmt.Sprintf("proxied flows per second of replay, %d clients, closed loop", clients))
	b.rep.set("proxy.flow_p50_us", "us", percentile(sp, 50), len(sp), "median proxied flow, dial to EOF")
	tail := tailPercentile(len(sp))
	b.rep.set("proxy.flow_tail_us", "us", percentile(sp, tail), len(sp), fmt.Sprintf("p%g of proxied flows, dial to EOF", tail))
	b.rep.set("proxy.added_p50_us", "us", percentile(sp, 50)-percentile(sd, 50), len(sd), "proxied minus direct p50")
	b.rep.set("proxy.added_p99_us", "us", percentile(sp, 99)-percentile(sd, 99), len(sd), "proxied minus direct p99")
	c := lr.counters
	b.rep.set("proxy.dial_us", "us", lr.dialUs, int(c.Accepted), "mean origin dial")
	b.rep.set("proxy.accepted", "count", float64(c.Accepted), 1, "")
	b.rep.set("proxy.relayed", "count", float64(c.Relayed), 1, "")
	for _, d := range []struct {
		name string
		n    uint64
	}{
		{"sniff", c.SniffFailed}, {"protocol", c.BadProtocol}, {"dial", c.DialFailed}, {"replay", c.ReplayFailed},
		{"idle", c.IdleTimeout}, {"bytecap", c.ByteCapExceeded}, {"forced", c.ForcedClose},
	} {
		b.rep.set("proxy.dropped."+d.name, "count", float64(d.n), 1, "")
	}
	b.rep.set("proxy.relayed_ratio", "ratio", float64(c.Relayed)/float64(max(c.Accepted, 1)), int(c.Accepted), "relayed / accepted")
	b.rep.set("proxy.active_max", "count", float64(lr.activeMax), 1, "most in-flight connections, read as each proxied flow sent its request")
	b.rep.set("proxy.bytes_per_s", "B/s", float64(c.BytesUp+c.BytesDown)/lr.seconds, 1, "relayed payload, both ways")
	b.rep.set("collect.encode_ns", "ns", lr.encodeNs, lr.logged, "per record, proxylog.Encoder under the log lock")
	b.rep.set("collect.down_delta_pct", "%", lr.downDeltaPct, lr.logged, "downlink bytes the proxy counted vs requested")
	b.rep.set("stream.tail_feed_wait_ms", "ms", lr.feedWaitMs, lr.logged, "total time Tail.Feed blocked")
	b.rep.set("collect.result_lag_ms", "ms", ms(lr.lag), 1, "Tail.Close to live Results")

	var hellos, heads [][]byte
	for _, rec := range in.flows[:min(len(in.flows), probeFlows)] {
		if rec.Scheme == proxylog.HTTPS {
			hellos = append(hellos, in.hellos[rec.Host])
		} else {
			heads = append(heads, in.firstFlight(rec))
		}
	}
	ns, err := perCall(len(hellos), func(i int) error {
		_, err := sni.Parse(hellos[i])
		return err
	})
	if err != nil {
		return fmt.Errorf("sni.Parse: %w", err)
	}
	b.rep.set("sni.parse_ns", "ns", ns, len(hellos), "per ClientHello")
	ns, err = perCall(len(heads), func(i int) error {
		_, err := httplog.ReadHead(bufio.NewReader(bytes.NewReader(heads[i])))
		return err
	})
	if err != nil {
		return fmt.Errorf("httplog.ReadHead: %w", err)
	}
	b.rep.set("httplog.head_ns", "ns", ns, len(heads), "per request head, reader included")
	return nil
}

// perCall times fn over n inputs, repeated until a quarter second has
// passed, and returns nanoseconds per call.
func perCall(n int, fn func(i int) error) (float64, error) {
	if n == 0 {
		return 0, nil
	}
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < 250*time.Millisecond {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return 0, err
			}
		}
		calls += n
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(calls), nil
}
