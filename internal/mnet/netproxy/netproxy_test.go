package netproxy

import (
	"bufio"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"io"
	"math/big"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/simtime"
)

// selfSigned builds a throwaway TLS certificate for the origin.
func selfSigned(t *testing.T, host string) tls.Certificate {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject:      pkix.Name{CommonName: host},
		DNSNames:     []string{host},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key}
}

// collector gathers proxied records.
type collector struct {
	mu   sync.Mutex
	recs []proxylog.Record
}

func (c *collector) log(r proxylog.Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, r)
}

func (c *collector) snapshot() []proxylog.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]proxylog.Record(nil), c.recs...)
}

func (c *collector) wait(t *testing.T, n int) []proxylog.Record {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		if len(c.recs) >= n {
			out := append([]proxylog.Record(nil), c.recs...)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d records", n)
	return nil
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{Log: func(proxylog.Record) {}}); err == nil {
		t.Fatal("missing Dial accepted")
	}
	if _, err := New(Config{Dial: func(string, bool) (net.Conn, error) { return nil, nil }}); err == nil {
		t.Fatal("missing Log accepted")
	}
}

// startProxy runs a proxy whose dialer routes every host to originAddr.
func startProxy(t *testing.T, origins map[string]string, col *collector) net.Addr {
	t.Helper()
	p, err := New(Config{
		Dial: func(host string, isTLS bool) (net.Conn, error) {
			addr, ok := origins[host]
			if !ok {
				return nil, fmt.Errorf("unknown host %q", host)
			}
			return net.Dial("tcp", addr)
		},
		Identify: func(net.Addr) Identity {
			return Identity{IMSI: subs.MustNew(42), IMEI: imei.MustNew(35332011, 7)}
		},
		Log: col.log,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = p.Serve(ln) }()
	t.Cleanup(func() { _ = p.Close() })
	return ln.Addr()
}

func TestHTTPSThroughProxy(t *testing.T) {
	const host = "api.weather.app"
	cert := selfSigned(t, host)

	// TLS echo origin.
	originLn, err := tls.Listen("tcp", "127.0.0.1:0", &tls.Config{Certificates: []tls.Certificate{cert}})
	if err != nil {
		t.Fatal(err)
	}
	defer originLn.Close()
	go func() {
		for {
			c, err := originLn.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 1024)
				n, _ := c.Read(buf)
				_, _ = c.Write([]byte("pong:"))
				_, _ = c.Write(buf[:n])
			}(c)
		}
	}()

	var col collector
	proxyAddr := startProxy(t, map[string]string{host: originLn.Addr().String()}, &col)

	// Client dials the PROXY but performs TLS end-to-end with the origin:
	// the proxy only reads the ClientHello and splices.
	pool := x509.NewCertPool()
	leaf, _ := x509.ParseCertificate(cert.Certificate[0])
	pool.AddCert(leaf)
	conn, err := tls.Dial("tcp", proxyAddr.String(), &tls.Config{
		ServerName: host,
		RootCAs:    pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	reply := make([]byte, 9)
	if _, err := io.ReadFull(conn, reply); err != nil {
		t.Fatal(err)
	}
	if string(reply) != "pong:ping" {
		t.Fatalf("reply = %q", reply)
	}
	conn.Close()

	recs := col.wait(t, 1)
	r := recs[0]
	if r.Scheme != proxylog.HTTPS {
		t.Fatalf("scheme = %v", r.Scheme)
	}
	if r.Host != host {
		t.Fatalf("host = %q", r.Host)
	}
	if r.Path != "" {
		t.Fatalf("https record carries path %q", r.Path)
	}
	if r.BytesUp <= 0 || r.BytesDown <= 0 {
		t.Fatalf("bytes = %d/%d", r.BytesUp, r.BytesDown)
	}
	if r.IMSI != subs.MustNew(42) || r.IMEI != imei.MustNew(35332011, 7) {
		t.Fatal("identity not attributed")
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPThroughProxy(t *testing.T) {
	const host = "news.example.com"
	originLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer originLn.Close()
	go func() {
		for {
			c, err := originLn.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				br := bufio.NewReader(c)
				// Read through the blank line, then answer.
				for {
					line, err := br.ReadString('\n')
					if err != nil || line == "\r\n" || line == "\n" {
						break
					}
				}
				_, _ = io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello")
			}(c)
		}
	}()

	var col collector
	proxyAddr := startProxy(t, map[string]string{host: originLn.Addr().String()}, &col)

	conn, err := net.Dial("tcp", proxyAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	req := "GET /feed/latest HTTP/1.1\r\nHost: " + host + "\r\nConnection: close\r\n\r\n"
	if _, err := io.WriteString(conn, req); err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(body), "hello") {
		t.Fatalf("body = %q", body)
	}
	conn.Close()

	recs := col.wait(t, 1)
	r := recs[0]
	if r.Scheme != proxylog.HTTP || r.Host != host || r.Path != "/feed/latest" {
		t.Fatalf("record = %+v", r)
	}
	if int(r.BytesUp) < len(req) {
		t.Fatalf("up bytes = %d, want >= %d", r.BytesUp, len(req))
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRecordTimeIgnoresZone: a clock that reads in a zone other than UTC
// stamps the same instant, and so the same hour of day, as one that reads
// it in UTC. 2018-03-20 20:40 UTC is 02:10 on the 21st at UTC+5:30.
func TestRecordTimeIgnoresZone(t *testing.T) {
	at := time.Date(2018, time.March, 20, 20, 40, 0, 0, time.UTC)
	stamp := func(loc *time.Location) proxylog.Record {
		r := newRig(t, Config{Now: func() time.Time { return at.In(loc) }}, func(string, bool) (net.Conn, error) {
			proxySide, originSide := net.Pipe()
			go func() {
				defer originSide.Close()
				if readHTTPHead(originSide) == nil {
					_, _ = io.WriteString(originSide, "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
				}
			}()
			return proxySide, nil
		})
		conn, err := net.Dial("tcp", r.addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: tz.example\r\n\r\n"); err != nil {
			t.Fatal(err)
		}
		_, _ = io.ReadAll(conn)
		conn.Close()
		return r.col.wait(t, 1)[0]
	}
	utc, local := stamp(time.UTC), stamp(time.FixedZone("", 5*3600+1800))
	if want := simtime.Instant(at.UnixNano()); utc.Time != want || local.Time != want {
		t.Fatalf("record times %d (UTC clock), %d (UTC+5:30 clock), want %d", utc.Time, local.Time, want)
	}
	if h := simtime.HourOf(local.Time).OfDay(); h != simtime.HourOf(utc.Time).OfDay() || h != 20 {
		t.Fatalf("hour of day %d, want 20 from either clock", h)
	}
}

func TestUnknownProtocolDropped(t *testing.T) {
	var col collector
	proxyAddr := startProxy(t, map[string]string{}, &col)

	conn, err := net.Dial("tcp", proxyAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	_, _ = conn.Write([]byte("\x00\x01\x02 garbage protocol"))
	buf := make([]byte, 8)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, _ := conn.Read(buf); n != 0 {
		t.Fatalf("got %d bytes back for garbage", n)
	}
	conn.Close()

	time.Sleep(100 * time.Millisecond)
	col.mu.Lock()
	defer col.mu.Unlock()
	if len(col.recs) != 0 {
		t.Fatalf("garbage produced %d records", len(col.recs))
	}
}

func TestUnknownHostDropped(t *testing.T) {
	var col collector
	proxyAddr := startProxy(t, map[string]string{}, &col) // dialer knows no hosts

	conn, err := net.Dial("tcp", proxyAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.WriteString(conn, "GET / HTTP/1.1\r\nHost: nowhere.example\r\n\r\n")
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 8)
	if n, _ := conn.Read(buf); n != 0 {
		t.Fatalf("got %d bytes for undialable host", n)
	}
	conn.Close()
	time.Sleep(100 * time.Millisecond)
	col.mu.Lock()
	defer col.mu.Unlock()
	if len(col.recs) != 0 {
		t.Fatal("undialable host produced a record")
	}
}

// BenchmarkProxyHTTPConnection measures the per-connection cost of the
// full sniff-splice-log path over loopback.
func BenchmarkProxyHTTPConnection(b *testing.B) {
	const host = "bench.example.com"
	originLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer originLn.Close()
	go func() {
		for {
			c, err := originLn.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					line, err := br.ReadString('\n')
					if err != nil || line == "\r\n" {
						break
					}
				}
				_, _ = io.WriteString(c, "HTTP/1.1 204 No Content\r\nConnection: close\r\n\r\n")
			}(c)
		}
	}()

	var col collector
	p, err := New(Config{
		Dial: func(string, bool) (net.Conn, error) { return net.Dial("tcp", originLn.Addr().String()) },
		Log:  col.log,
	})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = p.Serve(ln) }()
	defer p.Close()

	req := "GET /bench HTTP/1.1\r\nHost: " + host + "\r\nConnection: close\r\n\r\n"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.WriteString(conn, req); err != nil {
			b.Fatal(err)
		}
		_, _ = io.ReadAll(conn)
		conn.Close()
	}
}

func TestConcurrentConnections(t *testing.T) {
	const host = "echo.example.com"
	originLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer originLn.Close()
	go func() {
		for {
			c, err := originLn.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					line, err := br.ReadString('\n')
					if err != nil || line == "\r\n" {
						break
					}
				}
				_, _ = io.WriteString(c, "HTTP/1.1 204 No Content\r\nConnection: close\r\n\r\n")
			}(c)
		}
	}()

	var col collector
	proxyAddr := startProxy(t, map[string]string{host: originLn.Addr().String()}, &col)

	const n = 20
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", proxyAddr.String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			fmt.Fprintf(conn, "GET /c/%d HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n", i, host)
			_, _ = io.ReadAll(conn)
		}(i)
	}
	wg.Wait()

	recs := col.wait(t, n)
	paths := map[string]bool{}
	for _, r := range recs {
		paths[r.Path] = true
	}
	if len(paths) != n {
		t.Fatalf("distinct paths = %d, want %d", len(paths), n)
	}
}
