// Package replay drives generated proxy-log records through the REAL
// transparent proxy as live TCP connections and verifies capture fidelity:
// the loop that proves the measurement path (sniff → splice → log) would
// have produced the very records the synthetic ISP emits.
//
// For each replayed record the harness opens a connection to the proxy —
// a genuine TLS handshake carrying the record's host as SNI, or a
// cleartext HTTP request carrying its URL — moves approximately the
// record's byte volume through a local origin, and then compares what the
// proxy logged against what was sent.
package replay

import (
	"bufio"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"wearwild/internal/mnet/netproxy"
	"wearwild/internal/mnet/proxylog"
)

// Harness is a running replay rig: local origins, the proxy, a capture
// buffer.
type Harness struct {
	proxy     *netproxy.Proxy
	proxyAddr string

	tlsLn  net.Listener
	httpLn net.Listener

	// wg joins every goroutine the harness spawns — the origin accept
	// loops, the proxy server and the per-connection handlers — so Close
	// does not return while harness code is still running.
	wg sync.WaitGroup

	// done closes when Close begins. The origin accept loops poll it after
	// every Accept: a connection that wins the race against the closing
	// listener is dropped instead of spawning a fresh 15s-deadline handler
	// that Close would then wait out.
	done     chan struct{}
	doneOnce sync.Once

	mu       sync.Mutex
	captured []proxylog.Record
}

// NewHarness starts the origins and the proxy on loopback.
func NewHarness() (*Harness, error) {
	h := &Harness{done: make(chan struct{})}

	cert, err := selfSigned()
	if err != nil {
		return nil, err
	}
	h.tlsLn, err = tls.Listen("tcp", "127.0.0.1:0", &tls.Config{Certificates: []tls.Certificate{cert}})
	if err != nil {
		return nil, err
	}
	h.wg.Add(1)
	go h.serveTLSOrigin()

	h.httpLn, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = h.tlsLn.Close()
		return nil, err
	}
	h.wg.Add(1)
	go h.serveHTTPOrigin()

	proxy, err := netproxy.New(netproxy.Config{
		Dial: func(host string, isTLS bool) (net.Conn, error) {
			if isTLS {
				return net.Dial("tcp", h.tlsLn.Addr().String())
			}
			return net.Dial("tcp", h.httpLn.Addr().String())
		},
		Log: func(r proxylog.Record) {
			h.mu.Lock()
			h.captured = append(h.captured, r)
			h.mu.Unlock()
		},
	})
	if err != nil {
		_ = h.tlsLn.Close()
		_ = h.httpLn.Close()
		return nil, err
	}
	h.proxy = proxy

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = h.tlsLn.Close()
		_ = h.httpLn.Close()
		return nil, err
	}
	h.proxyAddr = ln.Addr().String()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		_ = proxy.Serve(ln)
	}()
	return h, nil
}

// Close stops the proxy and origins and waits for every harness
// goroutine to drain: the accept loops exit when their listeners close,
// and the per-connection handlers are bounded by their 15s deadlines.
// Signalling done before closing the listeners means an accept that wins
// the race is dropped rather than handled, so Close never waits a full
// handler deadline for a connection nobody will read. The proxy's Close
// drains every connection handler, and each handler logs its record
// before it exits, so once Close returns Captured holds a record for
// every connection the proxy accepted: read it after Close, with no
// polling.
func (h *Harness) Close() {
	h.doneOnce.Do(func() { close(h.done) })
	_ = h.proxy.Close()
	_ = h.tlsLn.Close()
	_ = h.httpLn.Close()
	h.wg.Wait()
}

// Captured returns a snapshot of the proxy's log. Before Close it may
// lack the records of connections whose handlers are still finishing;
// after Close it is complete.
func (h *Harness) Captured() []proxylog.Record {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]proxylog.Record(nil), h.captured...)
}

// Replay performs one record's connection through the proxy: it uploads
// approximately the record's uplink bytes and asks the origin for the
// record's downlink bytes.
func (h *Harness) Replay(rec proxylog.Record) error {
	switch rec.Scheme {
	case proxylog.HTTPS:
		return h.replayTLS(rec)
	case proxylog.HTTP:
		return h.replayHTTP(rec)
	default:
		return fmt.Errorf("replay: unknown scheme %v", rec.Scheme)
	}
}

// originProto: the TLS origin speaks a tiny length-prefixed protocol — an
// 8-byte big-endian "reply with this many bytes" header, then the upload
// payload; it answers with exactly the requested bytes.
func (h *Harness) replayTLS(rec proxylog.Record) error {
	conn, err := tls.Dial("tcp", h.proxyAddr, &tls.Config{
		ServerName: rec.Host,
		// The origin's throwaway certificate anchors no PKI; fidelity is
		// about the wire path.
		InsecureSkipVerify: true,
	})
	if err != nil {
		return fmt.Errorf("replay: tls dial: %w", err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))

	want := clampBytes(rec.BytesDown)
	var header [8]byte
	binary.BigEndian.PutUint64(header[:], uint64(want))
	if _, err := conn.Write(header[:]); err != nil {
		return err
	}
	if _, err := conn.Write(make([]byte, clampBytes(rec.BytesUp))); err != nil {
		return err
	}
	if cw, ok := conn.NetConn().(interface{ CloseWrite() error }); ok {
		_ = cw.CloseWrite()
	}
	got, err := io.Copy(io.Discard, conn)
	if err != nil && !isClosedErr(err) {
		return fmt.Errorf("replay: reading reply: %w", err)
	}
	if got < want {
		return fmt.Errorf("replay: origin returned %d of %d bytes", got, want)
	}
	return nil
}

func (h *Harness) replayHTTP(rec proxylog.Record) error {
	conn, err := net.Dial("tcp", h.proxyAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))

	want := clampBytes(rec.BytesDown)
	path := rec.Path
	if path == "" {
		path = "/"
	}
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: %s\r\nX-Want: %d\r\nConnection: close\r\n\r\n",
		path, rec.Host, want)
	if _, err := io.Copy(io.Discard, conn); err != nil && !isClosedErr(err) {
		return err
	}
	return nil
}

// serveTLSOrigin answers the length-prefixed echo protocol.
func (h *Harness) serveTLSOrigin() {
	defer h.wg.Done()
	for {
		c, err := h.tlsLn.Accept()
		if err != nil {
			return
		}
		select {
		case <-h.done:
			_ = c.Close()
			return
		default:
		}
		h.wg.Add(1)
		go func(c net.Conn) {
			defer h.wg.Done()
			defer c.Close()
			_ = c.SetDeadline(time.Now().Add(15 * time.Second))
			var header [8]byte
			if _, err := io.ReadFull(c, header[:]); err != nil {
				return
			}
			want := int64(binary.BigEndian.Uint64(header[:]))
			if want > maxReplayBytes {
				want = maxReplayBytes
			}
			// Drain the upload, then reply.
			_, _ = io.Copy(io.Discard, c)
			_, _ = io.CopyN(c, zeroReader{}, want)
		}(c)
	}
}

// serveHTTPOrigin answers GETs with an X-Want-sized body.
func (h *Harness) serveHTTPOrigin() {
	defer h.wg.Done()
	for {
		c, err := h.httpLn.Accept()
		if err != nil {
			return
		}
		select {
		case <-h.done:
			_ = c.Close()
			return
		default:
		}
		h.wg.Add(1)
		go func(c net.Conn) {
			defer h.wg.Done()
			defer c.Close()
			_ = c.SetDeadline(time.Now().Add(15 * time.Second))
			br := bufio.NewReader(c)
			want := int64(0)
			for {
				line, err := br.ReadString('\n')
				if err != nil {
					return
				}
				trimmed := strings.TrimRight(line, "\r\n")
				if trimmed == "" {
					break
				}
				if name, value, ok := strings.Cut(trimmed, ":"); ok &&
					strings.EqualFold(strings.TrimSpace(name), "X-Want") {
					want, _ = strconv.ParseInt(strings.TrimSpace(value), 10, 64)
				}
			}
			if want > maxReplayBytes {
				want = maxReplayBytes
			}
			fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\nConnection: close\r\n\r\n", want)
			_, _ = io.CopyN(c, zeroReader{}, want)
		}(c)
	}
}

// maxReplayBytes caps per-record volume so replaying a heavy log stays
// fast; fidelity is about capture, not throughput.
const maxReplayBytes = 256 << 10

func clampBytes(v int64) int64 {
	if v < 0 {
		return 0
	}
	if v > maxReplayBytes {
		return maxReplayBytes
	}
	return v
}

type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

func isClosedErr(err error) bool {
	return strings.Contains(err.Error(), "use of closed") ||
		strings.Contains(err.Error(), "EOF")
}

// Fidelity summarises a replayed-vs-captured comparison.
type Fidelity struct {
	Sent          int
	Captured      int
	HostMatches   int
	SchemeMatches int
	// MeanDownDelta is the mean relative difference between requested and
	// captured downlink volume (TLS framing adds a few percent).
	MeanDownDelta float64
}

// Verify matches sent records to captured ones by (scheme, host) multiset
// and reports fidelity.
func Verify(sent, captured []proxylog.Record) Fidelity {
	f := Fidelity{Sent: len(sent), Captured: len(captured)}
	type key struct {
		scheme proxylog.Scheme
		host   string
	}
	pool := make(map[key][]proxylog.Record)
	for _, c := range captured {
		k := key{c.Scheme, c.Host}
		pool[k] = append(pool[k], c)
	}
	var deltaSum float64
	deltaN := 0
	for _, s := range sent {
		k := key{s.Scheme, s.Host}
		if len(pool[k]) == 0 {
			continue
		}
		c := pool[k][0]
		pool[k] = pool[k][1:]
		f.HostMatches++
		f.SchemeMatches++
		want := float64(clampBytes(s.BytesDown))
		if want > 0 {
			deltaSum += (float64(c.BytesDown) - want) / want
			deltaN++
		}
	}
	if deltaN > 0 {
		f.MeanDownDelta = deltaSum / float64(deltaN)
	}
	return f
}

// selfSigned builds a throwaway certificate for the TLS origin.
func selfSigned() (tls.Certificate, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return tls.Certificate{}, err
	}
	tmpl := x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject:      pkix.Name{CommonName: "replay-origin"},
		DNSNames:     []string{"replay-origin"},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(24 * time.Hour),
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &key.PublicKey, key)
	if err != nil {
		return tls.Certificate{}, err
	}
	return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key}, nil
}
