package replay

import (
	"crypto/tls"
	"net"
	"testing"
	"time"
)

// TestOriginAcceptGateOnDone pins the ctxflow fix: once the harness's
// done channel is signalled, a connection that still wins the accept race
// is closed immediately instead of being handed to a 15-second-deadline
// handler that Close would have to wait out.
func TestOriginAcceptGateOnDone(t *testing.T) {
	h, err := NewHarness()
	if err != nil {
		t.Fatalf("NewHarness: %v", err)
	}
	defer h.Close()

	// Signal shutdown without closing the listeners: exactly the window
	// where an accept can still succeed.
	h.doneOnce.Do(func() { close(h.done) })

	for _, addr := range []string{h.httpLn.Addr().String(), h.tlsLn.Addr().String()} {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial %s: %v", addr, err)
		}
		// The gate must close the connection promptly; a handler would
		// instead sit in its read until the 15s deadline. Reading with a
		// short deadline distinguishes the two.
		_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 1)
		if _, err := c.Read(buf); err == nil {
			t.Fatalf("origin %s replied after done was signalled; want closed connection", addr)
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("origin %s neither closed nor replied within 2s: accept gate missing", addr)
		}
		_ = c.Close()
	}

	// Close must still drain cleanly after the gated accepts returned.
	done := make(chan struct{})
	go func() {
		h.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not drain after gated accepts")
	}
}

// TestCloseWaitsForHandlers pins Close's contract: it returns only once
// every harness goroutine has exited, so it waits for an origin handler
// still reading from a connection and returns promptly once that read
// ends.
func TestCloseWaitsForHandlers(t *testing.T) {
	h, err := NewHarness()
	if err != nil {
		t.Fatalf("NewHarness: %v", err)
	}
	// The TLS origin's handler runs the handshake, so a completed dial
	// means the handler is running; it then blocks reading the header.
	c, err := tls.Dial("tcp", h.tlsLn.Addr().String(), &tls.Config{InsecureSkipVerify: true})
	if err != nil {
		h.Close()
		t.Fatalf("dial the TLS origin: %v", err)
	}
	closed := make(chan struct{})
	go func() {
		h.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Error("Close returned while an origin handler was still reading")
	case <-time.After(200 * time.Millisecond):
	}
	_ = c.Close()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the handler's connection closed")
	}
}
