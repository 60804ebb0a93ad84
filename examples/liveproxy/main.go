// Liveproxy: run the real transparent logging proxy on localhost and drive
// genuine TLS and HTTP clients through it — the zero-to-capture proof of
// the measurement path. The proxy extracts SNI from real ClientHellos
// (crypto/tls on the wire, our parser in the middle), logs one record per
// connection, and the records then flow through the same app-identification
// pipeline the study uses.
package main

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
	"log"
	"math/big"
	"net"
	"sync"
	"time"

	"wearwild/internal/gen/apps"
	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/netproxy"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/study/appid"
	"wearwild/internal/study/sessions"
)

func main() {
	catalog := apps.Default()

	// Origins: one TLS echo server and one plain HTTP server, standing in
	// for app backends. Every catalogue host routes to them.
	tlsOrigin := startTLSOrigin()
	httpOrigin := startHTTPOrigin()

	// The proxy: SNI/URL sniffing, splicing, logging.
	var mu sync.Mutex
	var captured []proxylog.Record
	proxy, err := netproxy.New(netproxy.Config{
		Dial: func(host string, isTLS bool) (net.Conn, error) {
			if isTLS {
				return net.Dial("tcp", tlsOrigin)
			}
			return net.Dial("tcp", httpOrigin)
		},
		Identify: func(net.Addr) netproxy.Identity {
			return netproxy.Identity{IMSI: subs.MustNew(7), IMEI: imei.MustNew(35847309, 1)}
		},
		Log: func(r proxylog.Record) {
			mu.Lock()
			captured = append(captured, r)
			mu.Unlock()
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	// Buffered handoff: Serve's result always finds a slot, so the
	// goroutine exits the moment the deferred Close stops the proxy.
	serveErr := make(chan error, 1)
	go func() { serveErr <- proxy.Serve(ln) }()
	defer func() {
		if err := proxy.Close(); err != nil {
			log.Printf("proxy shutdown: %v", err)
		}
	}()
	fmt.Printf("transparent proxy on %s\n\n", ln.Addr())

	// Drive a realistic burst: a Weather usage (app + CDN + analytics)
	// over TLS, then an HTTP fetch.
	weather, _ := catalog.ByName("Weather")
	hosts := []string{
		weather.Hosts[0],
		catalog.SharedHosts(apps.KindUtilities)[0],
		catalog.SharedHosts(apps.KindAnalytics)[0],
	}
	for _, host := range hosts {
		if err := tlsPing(ln.Addr().String(), host); err != nil {
			log.Fatalf("tls %s: %v", host, err)
		}
	}
	if err := httpGet(ln.Addr().String(), weather.Hosts[1], "/feed/latest"); err != nil {
		log.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)

	// The captured records enter the same pipeline as the study.
	mu.Lock()
	records := append([]proxylog.Record(nil), captured...)
	mu.Unlock()

	fmt.Printf("captured %d records:\n", len(records))
	for _, r := range records {
		fmt.Printf("  %-5s %-28s up=%-5d down=%-5d %v\n", r.Scheme, r.Host, r.BytesUp, r.BytesDown, r.Duration.Round(time.Millisecond))
	}

	resolver := appid.NewResolver(catalog)
	usages := sessions.Sessionize(records, time.Minute)
	attributed := resolver.Attribute(usages)
	fmt.Printf("\nsessionised into %d usage(s):\n", len(attributed))
	for _, u := range attributed {
		name := "(unattributed)"
		if u.App != nil {
			name = u.App.Name
		}
		fmt.Printf("  app=%-12s tx=%d bytes=%d hosts=%v\n", name, u.Transactions(), u.Bytes(), u.Hosts())
		for _, rec := range u.Records {
			fmt.Printf("    %-28s -> %s\n", rec.Host, resolver.KindOfHost(rec.Host))
		}
	}
}

// tlsPing performs a full TLS handshake through the proxy for the given
// SNI and exchanges a few bytes.
func tlsPing(proxyAddr, host string) error {
	conn, err := tls.Dial("tcp", proxyAddr, &tls.Config{
		ServerName: host,
		// The origin's throwaway certificate is not in any root store;
		// this example is about the wire path, not PKI.
		InsecureSkipVerify: true,
	})
	if err != nil {
		return err
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("ping " + host)); err != nil {
		return err
	}
	buf := make([]byte, 64)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	_, err = conn.Read(buf)
	return err
}

// httpGet issues a cleartext request through the proxy.
func httpGet(proxyAddr, host, path string) error {
	conn, err := net.Dial("tcp", proxyAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n", path, host)
	_, err = io.ReadAll(conn)
	return err
}

// startTLSOrigin runs a TLS echo server with a throwaway certificate.
func startTLSOrigin() string {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	tmpl := x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject:      pkix.Name{CommonName: "origin"},
		DNSNames:     []string{"origin"},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(time.Hour),
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &key.PublicKey, key)
	if err != nil {
		log.Fatal(err)
	}
	cert := tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key}
	ln, err := tls.Listen("tcp", "127.0.0.1:0", &tls.Config{Certificates: []tls.Certificate{cert}})
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 256)
				n, _ := c.Read(buf)
				_, _ = c.Write(buf[:n])
			}(c)
		}
	}()
	return ln.Addr().String()
}

// startHTTPOrigin runs a minimal HTTP responder.
func startHTTPOrigin() string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					line, err := br.ReadString('\n')
					if err != nil || line == "\r\n" || line == "\n" {
						break
					}
				}
				_, _ = io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok")
			}(c)
		}
	}()
	return ln.Addr().String()
}
