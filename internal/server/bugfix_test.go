package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"webmm/internal/experiments"
)

// TestAddrUnblocksOnListenFailure: ListenAndServe on an address that cannot
// bind must still release concurrent Addr() callers (returning ""), not
// leave them parked on the ready channel forever.
func TestAddrUnblocksOnListenFailure(t *testing.T) {
	// Occupy a port so the server's listen deterministically fails.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	s, err := New(Config{Addr: ln.Addr().String(), Jobs: 1, Sim: testSim()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	serveErr := make(chan error, 1)
	go func() { serveErr <- s.ListenAndServe(context.Background()) }()

	addrc := make(chan string, 1)
	go func() { addrc <- s.Addr() }()
	select {
	case addr := <-addrc:
		if addr != "" {
			t.Fatalf("Addr() = %q on a failed listen, want \"\"", addr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Addr() still blocked 5s after the listen failed")
	}
	select {
	case err := <-serveErr:
		if err == nil {
			t.Fatal("ListenAndServe returned nil for an occupied address")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ListenAndServe did not return")
	}
}

// TestSlowHeaderClientCut: a client that dribbles its request headers (a
// slowloris) must be cut off by ReadHeaderTimeout rather than holding a
// connection open indefinitely.
func TestSlowHeaderClientCut(t *testing.T) {
	s, err := New(Config{Jobs: 1, Sim: testSim(), ReadHeaderTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe(ctx) }()
	defer func() {
		cancel()
		<-done
	}()
	addr := s.Addr()
	if addr == "" {
		t.Fatal("server failed to listen")
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half a request line, then silence: never finish the headers.
	if _, err := io.WriteString(conn, "POST /run HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server answered a half-sent request")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server left the slow-header connection open past 5s")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("connection closed after %v, want ~ReadHeaderTimeout (200ms)", elapsed)
	}
}

// TestDisconnectFreesWorkerAndGoroutines is the serve-path drain contract:
// a client that disconnects mid-cell must cancel the cell's context (here: a
// local cell long enough to still be simulating), free the worker slot, and
// return the server to its goroutine baseline. Without r.Context()
// propagating into the job, the cell would pin the slot until it finished.
func TestDisconnectFreesWorkerAndGoroutines(t *testing.T) {
	s, err := New(Config{Jobs: 1, QueueDepth: 4, Sim: testSim()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	baseline := runtime.NumGoroutine()

	// Eight Xeon cores for 3000 measured transactions per stream simulate
	// for tens of seconds; a cancelled cell stops within its first rounds.
	// Were the cell not cancelled, it would either still hold the worker at
	// the deadline below or finish with no cancellation recorded.
	ctx, cancel := context.WithCancel(context.Background())
	body := `{"platform":"xeon","alloc":"ddmalloc","workload":"phpBB","cores":8,"measure":3000}`
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/run",
		strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Wait until a worker has taken the cell, then disconnect the client.
	dec := json.NewDecoder(resp.Body)
	for {
		var e struct{ Event string }
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("stream ended before the cell ran: %v", err)
		}
		if e.Event == "running" {
			break
		}
	}
	if got := s.inflight.Load(); got != 1 {
		t.Fatalf("inflight = %d with a running cell, want 1", got)
	}
	cancel()

	// The worker slot must free: the next request gets served, not queued
	// behind a zombie.
	deadline := time.Now().Add(10 * time.Second)
	for s.inflight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("inflight still %d 10s after client disconnect", s.inflight.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The cell itself was cancelled, not left to finish.
	var fails []*experiments.CellError
	s.mu.Lock()
	for _, r := range s.runners {
		fails = append(fails, r.Failures()...)
	}
	s.mu.Unlock()
	if len(fails) != 1 || !errors.Is(fails[0].Err, context.Canceled) {
		t.Fatalf("failures after disconnect = %v, want one cancelled cell", fails)
	}
	// And the goroutines the request spawned (handler, job, HTTP plumbing)
	// must all unwind to the baseline.
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d still above baseline %d 10s after disconnect",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The freed slot takes new work.
	if code, lines := postRun(t, ts.URL, `{"alloc":"ddmalloc","workload":"phpBB","cores":1}`); code != http.StatusOK || resultOf(t, lines).Failed {
		t.Fatalf("request after disconnect: HTTP %d, %+v", code, lines)
	}
}

// TestServeConfigTimeoutDefaults pins the hardening defaults so a zero
// Config cannot regress to a server without slowloris or stalled-reader
// protection.
func TestServeConfigTimeoutDefaults(t *testing.T) {
	s, err := New(Config{Jobs: 1, Sim: testSim()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.cfg.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout default = %v, want 10s", s.cfg.ReadHeaderTimeout)
	}
	if s.cfg.IdleTimeout != 120*time.Second {
		t.Errorf("IdleTimeout default = %v, want 120s", s.cfg.IdleTimeout)
	}
	if s.cfg.EventWriteTimeout != 30*time.Second {
		t.Errorf("EventWriteTimeout default = %v, want 30s", s.cfg.EventWriteTimeout)
	}
	if fmt.Sprint(s.cfg.Addr) == "" {
		t.Error("Addr default empty")
	}
}
