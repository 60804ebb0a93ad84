// Command wearproxy runs the transparent logging proxy on a local
// address: the paper's measurement middlebox as a standalone tool. It
// sniffs each connection (TLS ClientHello or HTTP request head), splices
// it to the origin, and appends one proxy-log record per connection to a
// binary proxy log as the connection ends: the stream proxylog.ReadBinary
// and stream.Readers decode. Memory does not grow with the number of
// connections.
//
// Hosts are resolved through a plain DNS-less mapping file of
// "host=address:port" lines (transparent deployments know their routing),
// or with -passthrough every host is dialed directly on port 443/80.
//
// Usage:
//
//	wearproxy -listen 127.0.0.1:8443 -log proxy.bin [-map hosts.map | -passthrough]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"wearwild/internal/mnet/netproxy"
	"wearwild/internal/mnet/proxylog"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wearproxy: ")

	var (
		listen      = flag.String("listen", "127.0.0.1:8443", "listen address")
		logPath     = flag.String("log", "proxy.bin", "binary proxy log output")
		mapPath     = flag.String("map", "", "host mapping file: one host=addr:port per line")
		passthrough = flag.Bool("passthrough", false, "dial hosts directly (443 for TLS, 80 for HTTP)")

		sniffTimeout = flag.Duration("sniff-timeout", 10*time.Second, "bound on reading the first flight (ClientHello / HTTP head)")
		dialTimeout  = flag.Duration("dial-timeout", 10*time.Second, "bound on the origin dial")
		idleTimeout  = flag.Duration("idle-timeout", 2*time.Minute, "cut connections with no bytes moving for this long")
		drain        = flag.Duration("drain", 5*time.Second, "shutdown grace before in-flight connections are force-closed")
		maxConns     = flag.Int("max-conns", 1024, "concurrent connection bound (accept-side backpressure)")
		maxConnBytes = flag.Int64("max-conn-bytes", 0, "per-connection byte cap, 0 = unlimited")
	)
	flag.Parse()

	hostMap, err := loadHostMap(*mapPath)
	if err != nil {
		log.Fatal(err)
	}
	if len(hostMap) == 0 && !*passthrough {
		log.Fatal("need -map or -passthrough")
	}

	f, err := os.Create(*logPath)
	if err != nil {
		log.Fatal(err)
	}
	// mu guards the encoder, the record count and the first encoding
	// error, after which no record is encoded.
	var (
		mu     sync.Mutex
		enc    = proxylog.NewEncoder(f)
		n      int
		encErr error
	)

	proxy, err := netproxy.New(netproxy.Config{
		Dial: func(host string, isTLS bool) (net.Conn, error) {
			if addr, ok := hostMap[host]; ok {
				return net.Dial("tcp", addr)
			}
			if !*passthrough {
				return nil, fmt.Errorf("host %q not mapped", host)
			}
			port := "80"
			if isTLS {
				port = "443"
			}
			return net.Dial("tcp", net.JoinHostPort(host, port))
		},
		Log: func(r proxylog.Record) {
			mu.Lock()
			if encErr == nil {
				encErr = enc.Encode(r)
			}
			n++
			seq := n
			mu.Unlock()
			suffix := ""
			if r.Truncated() {
				suffix = " [dropped: " + r.Drop.String() + "]"
			}
			log.Printf("#%d %s %s %dB up %dB down %v%s", seq, r.Scheme, r.Host, r.BytesUp, r.BytesDown, r.Duration, suffix)
		},
		SniffTimeout: *sniffTimeout,
		DialTimeout:  *dialTimeout,
		IdleTimeout:  *idleTimeout,
		DrainTimeout: *drain,
		MaxConns:     *maxConns,
		MaxConnBytes: *maxConnBytes,
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s, logging to %s", ln.Addr(), *logPath)

	done := make(chan error, 1)
	go func() { done <- proxy.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
		log.Printf("shutting down")
		_ = proxy.Close()
		<-done
	case err := <-done:
		if err != nil {
			log.Fatal(err)
		}
	}

	dumpCounters(proxy.Counters())

	mu.Lock()
	defer mu.Unlock()
	if encErr == nil {
		encErr = enc.Flush()
	}
	if err := f.Close(); encErr == nil {
		encErr = err
	}
	if encErr != nil {
		log.Fatalf("writing %s: %v", *logPath, encErr)
	}
	log.Printf("wrote %d records to %s", n, *logPath)
}

// dumpCounters prints the proxy's accounting on shutdown so operators see
// where connections went — clean relays versus each drop bucket.
func dumpCounters(c netproxy.Counters) {
	log.Printf("counters: accepted=%d relayed=%d dropped=%d up=%dB down=%dB",
		c.Accepted, c.Relayed, c.Dropped(), c.BytesUp, c.BytesDown)
	if c.Dropped() > 0 {
		log.Printf("drops: sniff=%d protocol=%d dial=%d replay=%d idle=%d bytecap=%d forced=%d",
			c.SniffFailed, c.BadProtocol, c.DialFailed, c.ReplayFailed,
			c.IdleTimeout, c.ByteCapExceeded, c.ForcedClose)
	}
}

// loadHostMap parses "host=addr:port" lines; '#' starts a comment.
func loadHostMap(path string) (map[string]string, error) {
	out := map[string]string{}
	if path == "" {
		return out, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		host, addr, ok := strings.Cut(text, "=")
		if !ok {
			return nil, fmt.Errorf("%s:%d: want host=addr:port", path, line)
		}
		out[strings.TrimSpace(host)] = strings.TrimSpace(addr)
	}
	return out, sc.Err()
}
