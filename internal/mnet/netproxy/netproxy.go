// Package netproxy implements a working transparent logging proxy: the
// measurement middlebox of §3.1 as running code. It accepts TCP
// connections, sniffs the first bytes to tell TLS from cleartext HTTP,
// extracts the SNI (via the hand-written ClientHello parser) or the full
// URL (via the HTTP head parser), splices the connection to the origin,
// counts bytes in both directions and emits one proxylog.Record per
// connection — the same record schema the synthetic ISP generates.
//
// The proxy is built to survive hostile and broken traffic: every
// connection runs under a dial timeout, a connection-level idle timeout
// (bumped on every relayed chunk), and a hard byte cap; concurrent
// connections are bounded with accept-side backpressure; Close drains
// in-flight connections for a deadline and then force-closes them. Every
// abnormal ending is accounted in Counters, and — once bytes have started
// moving toward an origin — still emits a proxylog.Record tagged with a
// DropReason so byte totals survive failures. DESIGN.md §6 documents the
// semantics.
package netproxy

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"wearwild/internal/mnet/httplog"
	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/sni"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/simtime"
)

// Identity is the subscriber attribution of a connection. A real
// deployment resolves it from the GTP tunnel; tests and examples supply a
// static mapping.
type Identity struct {
	IMSI subs.IMSI
	IMEI imei.IMEI
}

// Config wires a proxy. All durations and limits have production-safe
// defaults; zero values never mean "unlimited" except MaxConnBytes.
type Config struct {
	// Dial opens a connection to the origin serving host. Required.
	// isTLS reports which side of the sniff the connection came from so a
	// dialer can choose ports.
	Dial func(host string, isTLS bool) (net.Conn, error)
	// Identify attributes a client connection to a subscriber. Optional;
	// records carry zero identities without it.
	Identify func(remote net.Addr) Identity
	// Log receives one record per proxied connection. Required.
	Log func(proxylog.Record)
	// Now stamps records as zone-free instants; defaults to time.Now.
	Now func() time.Time
	// SniffTimeout bounds how long the proxy waits for the complete first
	// flight (ClientHello or HTTP head). Default 10s.
	SniffTimeout time.Duration
	// DialTimeout bounds the origin dial. The Dial callback runs in its
	// own goroutine; if it outlives the timeout its eventual connection
	// is closed and the client connection is dropped. Default 10s.
	DialTimeout time.Duration
	// IdleTimeout cuts a spliced connection once no bytes have moved in
	// either direction for this long. The deadline is re-armed on every
	// relayed chunk, so long transfers survive as long as they progress.
	// Default 2m.
	IdleTimeout time.Duration
	// HalfCloseGrace applies after one direction finishes on a transport
	// without CloseWrite (no way to signal EOF): the remaining direction
	// keeps relaying but its idle allowance shrinks to this grace, and
	// expiry counts as a clean end, not a drop. Default 5s.
	HalfCloseGrace time.Duration
	// MaxConnBytes caps the payload bytes one connection may relay in
	// both directions combined; exceeding it cuts the connection with
	// DropByteCap. 0 means unlimited.
	MaxConnBytes int64
	// MaxConns bounds concurrently served connections. When the bound is
	// reached the accept loop stops accepting (backpressure lands in the
	// kernel listen queue) until a slot frees. Default 1024.
	MaxConns int
	// DrainTimeout bounds how long Close — and Serve's error path — waits
	// for in-flight connections before force-closing them. Default 5s.
	DrainTimeout time.Duration
}

// Counters is a snapshot of the proxy's connection accounting. Every
// accepted connection ends in exactly one of Relayed or a drop bucket.
type Counters struct {
	// Accepted counts connections handed to a handler.
	Accepted uint64
	// Active is the number of in-flight connections at snapshot time.
	Active uint64
	// Relayed counts cleanly completed connections (DropNone records).
	Relayed uint64
	// SniffFailed counts first-flight parse failures and sniff timeouts.
	SniffFailed uint64
	// BadProtocol counts connections that were neither TLS nor HTTP.
	BadProtocol uint64
	// DialFailed counts origin dial errors and dial timeouts.
	DialFailed uint64
	// ReplayFailed counts failed replays of sniffed bytes upstream.
	ReplayFailed uint64
	// IdleTimeout counts connections cut by the idle timeout.
	IdleTimeout uint64
	// ByteCapExceeded counts connections cut by MaxConnBytes.
	ByteCapExceeded uint64
	// ForcedClose counts connections force-closed at the drain deadline.
	ForcedClose uint64
	// BytesUp and BytesDown total relayed payload bytes, including the
	// partial counts of dropped connections.
	BytesUp   uint64
	BytesDown uint64
}

// Dropped sums all drop buckets.
func (c Counters) Dropped() uint64 {
	return c.SniffFailed + c.BadProtocol + c.DialFailed + c.ReplayFailed +
		c.IdleTimeout + c.ByteCapExceeded + c.ForcedClose
}

// counters is the internal atomic mirror of Counters.
type counters struct {
	accepted atomic.Uint64
	active   atomic.Uint64
	relayed  atomic.Uint64
	drops    [proxylog.NumDropReasons]atomic.Uint64
	bytesUp  atomic.Uint64
	bytesDn  atomic.Uint64
}

// Proxy is a running transparent proxy.
type Proxy struct {
	cfg    Config
	mu     sync.Mutex // guards ln against Serve/Close racing
	ln     net.Listener
	wg     sync.WaitGroup
	closed atomic.Bool

	done     chan struct{} // closed once by Close; unblocks backpressure
	doneOnce sync.Once
	sem      chan struct{} // MaxConns slots; held accept→handler-exit

	flowMu sync.Mutex // guards flows
	flows  map[*flow]struct{}

	ctr counters
}

// New validates the configuration and applies defaults.
func New(cfg Config) (*Proxy, error) {
	if cfg.Dial == nil {
		return nil, fmt.Errorf("netproxy: Dial is required")
	}
	if cfg.Log == nil {
		return nil, fmt.Errorf("netproxy: Log is required")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.SniffTimeout <= 0 {
		cfg.SniffTimeout = 10 * time.Second
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 2 * time.Minute
	}
	if cfg.HalfCloseGrace <= 0 {
		cfg.HalfCloseGrace = 5 * time.Second
	}
	if cfg.MaxConnBytes < 0 {
		return nil, fmt.Errorf("netproxy: negative MaxConnBytes")
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 1024
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	return &Proxy{
		cfg:   cfg,
		done:  make(chan struct{}),
		sem:   make(chan struct{}, cfg.MaxConns),
		flows: make(map[*flow]struct{}),
	}, nil
}

// Counters returns a snapshot of the proxy's accounting.
func (p *Proxy) Counters() Counters {
	return Counters{
		Accepted:        p.ctr.accepted.Load(),
		Active:          p.ctr.active.Load(),
		Relayed:         p.ctr.relayed.Load(),
		SniffFailed:     p.ctr.drops[proxylog.DropSniff].Load(),
		BadProtocol:     p.ctr.drops[proxylog.DropProtocol].Load(),
		DialFailed:      p.ctr.drops[proxylog.DropDial].Load(),
		ReplayFailed:    p.ctr.drops[proxylog.DropReplay].Load(),
		IdleTimeout:     p.ctr.drops[proxylog.DropIdle].Load(),
		ByteCapExceeded: p.ctr.drops[proxylog.DropByteCap].Load(),
		ForcedClose:     p.ctr.drops[proxylog.DropForced].Load(),
		BytesUp:         p.ctr.bytesUp.Load(),
		BytesDown:       p.ctr.bytesDn.Load(),
	}
}

// flow is one client connection's lifecycle state, registered so Close
// can force it at the drain deadline.
type flow struct {
	client net.Conn
	mu     sync.Mutex // guards origin
	origin net.Conn
	forced atomic.Bool
}

// setOrigin records the dialed origin; if the flow was forced while the
// dial ran, the origin is closed immediately.
func (f *flow) setOrigin(c net.Conn) {
	f.mu.Lock()
	f.origin = c
	forced := f.forced.Load()
	f.mu.Unlock()
	if forced {
		_ = c.Close()
	}
}

// shutdown closes both legs. Closing a net.Conn twice is safe, so racing
// shutdowns are harmless.
func (f *flow) shutdown() {
	f.mu.Lock()
	o := f.origin
	f.mu.Unlock()
	_ = f.client.Close()
	if o != nil {
		_ = o.Close()
	}
}

// force marks the flow as force-closed and severs both legs; in-flight
// reads and writes fail immediately and report DropForced.
func (f *flow) force() {
	f.forced.Store(true)
	f.shutdown()
}

// Serve accepts connections on ln until Close. It returns nil after a
// clean Close. On an accept error it drains in-flight handlers — bounded
// by DrainTimeout, force-closing stragglers — before returning, so no
// handler goroutine outlives Serve.
func (p *Proxy) Serve(ln net.Listener) error {
	// Serve records ln only while the proxy is open, and Close marks it
	// closed under the same lock, so exactly one of them closes ln.
	p.mu.Lock()
	alreadyClosed := p.closed.Load()
	if !alreadyClosed {
		p.ln = ln
	}
	p.mu.Unlock()
	if alreadyClosed {
		_ = ln.Close()
		return nil
	}
	for {
		// Accept-side backpressure: take a connection slot before
		// accepting, so at MaxConns the kernel listen queue absorbs the
		// burst instead of the proxy's memory.
		select {
		case p.sem <- struct{}{}:
		case <-p.done:
			p.drain()
			return nil
		}
		conn, err := ln.Accept()
		if err != nil {
			<-p.sem
			p.drain()
			if p.closed.Load() {
				return nil
			}
			return err
		}
		p.ctr.accepted.Add(1)
		p.wg.Add(1)
		go func() {
			defer func() {
				<-p.sem
				p.wg.Done()
			}()
			p.handle(conn)
		}()
	}
}

// Close stops accepting and drains in-flight connections: it waits up to
// DrainTimeout for them to finish, then force-closes the rest (each
// appears in Counters as ForcedClose and, when bytes were moving, as a
// DropForced record) and returns once every handler has exited.
func (p *Proxy) Close() error {
	p.mu.Lock()
	p.closed.Store(true)
	ln := p.ln
	p.ln = nil
	p.mu.Unlock()
	p.doneOnce.Do(func() { close(p.done) })
	var err error
	if ln != nil {
		err = ln.Close()
	}
	p.drain()
	return err
}

// drain waits for in-flight handlers up to DrainTimeout, then forces the
// survivors and waits for the (now prompt) handler exits.
func (p *Proxy) drain() {
	handlersDone := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(handlersDone)
	}()
	t := time.NewTimer(p.cfg.DrainTimeout)
	defer t.Stop()
	select {
	case <-handlersDone:
		return
	case <-t.C:
	}
	// Steal the live set under the lock, force outside it: force closes
	// sockets, and a handler exiting on that close calls untrack, which
	// needs flowMu — holding it here would stall every handler exit on
	// this socket teardown.
	p.flowMu.Lock()
	survivors := p.flows
	p.flows = make(map[*flow]struct{})
	p.flowMu.Unlock()
	for f := range survivors {
		f.force()
	}
	<-handlersDone
}

func (p *Proxy) track(f *flow) {
	p.flowMu.Lock()
	p.flows[f] = struct{}{}
	p.flowMu.Unlock()
}

func (p *Proxy) untrack(f *flow) {
	p.flowMu.Lock()
	delete(p.flows, f)
	p.flowMu.Unlock()
}

// drop accounts an abnormal connection ending.
func (p *Proxy) drop(reason proxylog.DropReason) {
	p.ctr.drops[reason].Add(1)
}

// dial runs the configured dialer under DialTimeout. The callback runs in
// its own goroutine so a stuck dialer cannot wedge the handler; a
// connection arriving after the timeout is closed by a reaper.
func (p *Proxy) dial(host string, isTLS bool) (net.Conn, error) {
	type result struct {
		c   net.Conn
		err error
	}
	ch := make(chan result, 1)
	go func() {
		c, err := p.cfg.Dial(host, isTLS)
		ch <- result{c, err}
	}()
	t := time.NewTimer(p.cfg.DialTimeout)
	defer t.Stop()
	select {
	case r := <-ch:
		return r.c, r.err
	case <-t.C:
		// The reaper's receive is bounded by the dialer goroutine above,
		// which always sends exactly one result into the buffered channel;
		// the reaper lives precisely as long as the in-flight dial it
		// exists to clean up after.
		go func() {
			if r := <-ch; r.c != nil {
				_ = r.c.Close()
			}
		}()
		return nil, fmt.Errorf("netproxy: dial %s: timeout after %v", host, p.cfg.DialTimeout)
	}
}

// handle sniffs and splices one client connection.
func (p *Proxy) handle(client net.Conn) {
	f := &flow{client: client}
	p.track(f)
	defer p.untrack(f)
	defer client.Close()
	p.ctr.active.Add(1)
	defer p.ctr.active.Add(^uint64(0))

	start := p.cfg.Now()
	_ = client.SetReadDeadline(time.Now().Add(p.cfg.SniffTimeout))

	br := bufio.NewReader(client)
	prefix, err := br.Peek(1)
	if err != nil {
		p.drop(sniffDropReason(f, nil))
		return
	}

	var (
		host, path string
		scheme     proxylog.Scheme
		replay     []byte
	)
	switch {
	case prefix[0] == 0x16: // TLS handshake record
		info, raw, err := sni.ReadClientHello(br)
		if err != nil || info.ServerName == "" {
			p.drop(sniffDropReason(f, err))
			return
		}
		host, scheme, replay = info.ServerName, proxylog.HTTPS, raw
	default:
		peek, _ := br.Peek(8)
		if !httplog.LooksLikeHTTP(peek) {
			p.drop(proxylog.DropProtocol)
			return
		}
		head, err := httplog.ReadHead(br)
		if err != nil {
			p.drop(sniffDropReason(f, err))
			return
		}
		host, path, scheme, replay = head.Host, head.Path, proxylog.HTTP, head.Raw
	}
	_ = client.SetReadDeadline(time.Time{})

	origin, err := p.dial(host, scheme == proxylog.HTTPS)
	if err != nil {
		p.drop(proxylog.DropDial)
		return
	}
	f.setOrigin(origin)
	defer origin.Close()

	up, down, dropped := p.splice(f, br, replay)
	p.ctr.bytesUp.Add(uint64(up))
	p.ctr.bytesDn.Add(uint64(down))
	if dropped == proxylog.DropNone {
		p.ctr.relayed.Add(1)
	} else {
		p.drop(dropped)
	}

	rec := proxylog.Record{
		Time:      simtime.Instant(start.UnixNano()),
		Scheme:    scheme,
		Host:      host,
		Path:      path,
		BytesUp:   up,
		BytesDown: down,
		Duration:  p.cfg.Now().Sub(start),
		Drop:      dropped,
	}
	if p.cfg.Identify != nil {
		id := p.cfg.Identify(client.RemoteAddr())
		rec.IMSI, rec.IMEI = id.IMSI, id.IMEI
	}
	p.cfg.Log(rec)
}

// sniffDropReason classifies a first-flight failure: bytes that announced
// one protocol and then turned out to be another are BadProtocol; parse
// failures, truncation and sniff timeouts are SniffFailed; a force-close
// during the sniff is attributed to the drain.
func sniffDropReason(f *flow, err error) proxylog.DropReason {
	if f.forced.Load() {
		return proxylog.DropForced
	}
	if errors.Is(err, sni.ErrNotTLS) || errors.Is(err, sni.ErrNotClientHello) || errors.Is(err, httplog.ErrNotHTTP) {
		return proxylog.DropProtocol
	}
	return proxylog.DropSniff
}

// spliceState is the byte/lifecycle bookkeeping shared by the two copy
// directions of one connection.
type spliceState struct {
	// budget is the remaining byte allowance (MaxConnBytes); both
	// directions draw from it. Unlimited configs start it at MaxInt64.
	budget atomic.Int64
	// lastActivity is the unix-nano stamp of the newest relayed chunk in
	// either direction; the idle timeout is connection-level, so one
	// quiet direction never cuts an active transfer.
	lastActivity atomic.Int64
	// upGrace/downGrace flag that the opposite direction finished on a
	// transport without CloseWrite: the reader switches from IdleTimeout
	// to HalfCloseGrace and treats expiry as a clean end.
	upGrace, downGrace atomic.Bool
}

// splice replays the sniffed bytes upstream and pipes both directions,
// returning the byte counts (sniffed bytes count as uplink) and how the
// connection ended. A failed replay counts its partial write.
func (p *Proxy) splice(f *flow, clientBuf *bufio.Reader, replay []byte) (up, down int64, dropped proxylog.DropReason) {
	st := &spliceState{}
	if p.cfg.MaxConnBytes > 0 {
		st.budget.Store(p.cfg.MaxConnBytes)
	} else {
		st.budget.Store(int64(1)<<62 - 1)
	}
	st.lastActivity.Store(time.Now().UnixNano())

	if len(replay) > 0 {
		_ = f.origin.SetWriteDeadline(time.Now().Add(p.cfg.IdleTimeout))
		n, err := f.origin.Write(replay)
		_ = f.origin.SetWriteDeadline(time.Time{})
		up += int64(n)
		st.budget.Add(-int64(n))
		if err != nil {
			if f.forced.Load() {
				return up, 0, proxylog.DropForced
			}
			return up, 0, proxylog.DropReplay
		}
	}

	var wg sync.WaitGroup
	var upPiped, downPiped int64
	var upDrop, downDrop proxylog.DropReason
	wg.Add(2)
	go func() {
		defer wg.Done()
		upPiped, upDrop = p.copyDirection(f, clientBuf, f.client, f.origin, st, &st.upGrace)
		if upDrop != proxylog.DropNone {
			f.shutdown() // a cut is connection-level: stop the other leg too
		} else {
			p.halfClose(f.origin, &st.downGrace)
		}
	}()
	go func() {
		defer wg.Done()
		downPiped, downDrop = p.copyDirection(f, f.origin, f.origin, f.client, st, &st.downGrace)
		if downDrop != proxylog.DropNone {
			f.shutdown()
		} else {
			p.halfClose(f.client, &st.upGrace)
		}
	}()
	wg.Wait()

	// DropReason values are ordered by severity, so the worse of the two
	// directions names the connection's fate.
	dropped = upDrop
	if downDrop > dropped {
		dropped = downDrop
	}
	return up + upPiped, downPiped, dropped
}

// copyDirection relays src→dst with a deadline re-armed on every chunk.
// src is the buffered reader side for the client direction; srcConn is
// the conn whose read deadline governs the reads.
func (p *Proxy) copyDirection(f *flow, src io.Reader, srcConn, dst net.Conn, st *spliceState, grace *atomic.Bool) (n int64, dropped proxylog.DropReason) {
	buf := make([]byte, 32<<10)
	for {
		idle := p.cfg.IdleTimeout
		if grace.Load() {
			idle = p.cfg.HalfCloseGrace
		}
		_ = srcConn.SetReadDeadline(time.Now().Add(idle))
		nr, rerr := src.Read(buf)
		if nr > 0 {
			st.lastActivity.Store(time.Now().UnixNano())
			over := st.budget.Add(-int64(nr)) < 0
			nw, werr := dst.Write(buf[:nr])
			n += int64(nw)
			if over {
				return n, proxylog.DropByteCap
			}
			if werr != nil || nw < nr {
				if f.forced.Load() {
					return n, proxylog.DropForced
				}
				// The peer vanished mid-write (reset); the bytes that made
				// it are counted, the ending is ordinary.
				return n, proxylog.DropNone
			}
		}
		if rerr == nil {
			continue
		}
		switch {
		case rerr == io.EOF:
			return n, proxylog.DropNone
		case f.forced.Load():
			return n, proxylog.DropForced
		case isTimeout(rerr):
			if grace.Load() {
				// Half-close drain window expired: the other direction is
				// done and this one has gone quiet — a clean end.
				return n, proxylog.DropNone
			}
			if time.Since(nanoTime(st.lastActivity.Load())) < p.cfg.IdleTimeout {
				// The other direction moved bytes recently; this one is
				// merely one-sided (a long download after a short
				// request). Re-arm and keep waiting.
				continue
			}
			return n, proxylog.DropIdle
		default:
			// Reset / closed-by-peer: partial bytes counted, clean end.
			return n, proxylog.DropNone
		}
	}
}

// halfClose signals EOF to the peer after one direction finishes. With
// CloseWrite support it is a true half-close and the other direction
// drains naturally. Without it there is no in-band EOF, so the opposite
// reader is switched to the HalfCloseGrace idle allowance — re-armed per
// chunk, so still-active transfers keep going — and its in-flight read is
// woken so the new allowance takes effect.
func (p *Proxy) halfClose(c net.Conn, peerGrace *atomic.Bool) {
	type closeWriter interface{ CloseWrite() error }
	if cw, ok := c.(closeWriter); ok {
		_ = cw.CloseWrite()
		return
	}
	peerGrace.Store(true)
	_ = c.SetReadDeadline(time.Now().Add(p.cfg.HalfCloseGrace))
}

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func nanoTime(ns int64) time.Time { return time.Unix(0, ns) }
