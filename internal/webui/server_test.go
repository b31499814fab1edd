package webui

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"a4nn/internal/obs"
)

// TestHTTPServerTimeouts: a client that never finishes its request
// headers is disconnected, and an /events subscriber — a response that
// stays open far longer than any timeout — is not. The production
// timeouts are scaled down so the test takes milliseconds; what is under
// test is which of the server's timeouts NewHTTPServer sets.
func TestHTTPServerTimeouts(t *testing.T) {
	journal := obs.NewJournal(0)
	srv := NewHTTPServer(EventsHandler(journal))
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout %v and IdleTimeout %v must both be set", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("ReadTimeout %v / WriteTimeout %v would cut SSE streams", srv.ReadTimeout, srv.WriteTimeout)
	}
	const scaled = 100 * time.Millisecond
	srv.ReadHeaderTimeout, srv.IdleTimeout = scaled, scaled

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := io.WriteString(stalled, "GET /events HTTP/1.1\r\nHost: stalled\r\n"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + ln.Addr().String() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	stream := newSSEStream(bufio.NewReader(resp.Body))

	// The stalled connection is closed by the server: the read ends with
	// an error (EOF) well before the test's own deadline.
	stalled.SetReadDeadline(time.Now().Add(10 * time.Second))
	start := time.Now()
	if _, err := io.ReadAll(stalled); err != nil {
		t.Fatalf("stalled-header connection still open after %v: %v", time.Since(start), err)
	}

	// By now the subscriber has outlived the timeouts several times over.
	time.Sleep(3 * scaled)
	journal.Emit(obs.Event{Type: obs.EventRunStart})
	if got := readSSE(t, stream, 1, 5*time.Second); len(got) != 1 || got[0].Type != string(obs.EventRunStart) {
		t.Fatalf("SSE subscriber did not receive the event after the timeouts passed: %+v", got)
	}
}
