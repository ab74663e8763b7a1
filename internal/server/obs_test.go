package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestAdmitTimeoutHoldsNothing is the regression test for the
// admit-timeout reservation leak: a request whose deadline passes
// mid-decision is answered 503 and must hold nothing — the ledger
// refuses to reserve once the request context has ended.
func TestAdmitTimeoutHoldsNothing(t *testing.T) {
	srv, err := New(Config{Theta: cpuTheta(4, 1000, "l1"), Workers: 1, DecisionTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var blocked atomic.Bool
	srv.ledger.testPostPlanHook = func(ctx context.Context, job string) {
		if job == "slow" && blocked.CompareAndSwap(false, true) {
			<-ctx.Done() // hold the planned job past its decision deadline
		}
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Shutdown(context.Background())
	})

	resp, body := postBody(t, ts.URL+"/v1/admit", admitBody(t, cpuJob(t, "slow", "l1", 0, 1000)))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("blocked admit returned %d (%s), want 503 timeout", resp.StatusCode, body)
	}
	st := srv.Stats()
	if st.TimedOut != 1 {
		t.Fatalf("timed_out = %d, want 1", st.TimedOut)
	}
	if st.Commitments != 0 {
		t.Fatalf("timed-out admit holds a reservation: %d live commitments", st.Commitments)
	}
	if err := srv.Ledger().Audit(); err != nil {
		t.Fatal(err)
	}

	// The name is free again: the same job admits cleanly, which it
	// could not if the timed-out claim were still on the ledger.
	resp, body = postBody(t, ts.URL+"/v1/admit", admitBody(t, cpuJob(t, "slow", "l1", 0, 1000)))
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"admit":true`) {
		t.Fatalf("re-admit after timeout: %d %s", resp.StatusCode, body)
	}
}

// TestServerMetricsEndpoint scrapes a live server's /metrics and checks
// the exposition parses and carries the core families with live values.
func TestServerMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, cpuTheta(2, 64, "l1"))

	resp, body := postBody(t, ts.URL+"/v1/admit", admitBody(t, cpuJob(t, "m1", "l1", 0, 64)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admit: %d %s", resp.StatusCode, body)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	if mr.StatusCode != http.StatusOK || !strings.HasPrefix(mr.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("GET /metrics: %d %q", mr.StatusCode, mr.Header.Get("Content-Type"))
	}
	m, err := obs.ParseMetrics(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		"rota_admitted_total":     1,
		"rota_decisions_total":    1,
		"rota_ledger_commitments": 1,
		"rota_ledger_shards":      1,
		"rota_queue_depth":        0,
		"rota_inflight_decisions": 0,
	} {
		if got, ok := m[key]; !ok || got != want {
			t.Errorf("scraped %s = %v, %v; want %v", key, got, ok, want)
		}
	}
	if v, ok := m[`rota_decision_latency_us_count`]; !ok || v != 1 {
		t.Errorf("decision latency count = %v, %v", v, ok)
	}
	if _, ok := m[`rota_http_requests_total{layer="server",endpoint="admit",class="2xx"}`]; !ok {
		t.Errorf("per-endpoint family missing; scraped keys: %d", len(m))
	}
}

// TestServerEventLog drives one admit and one lease expiry through a
// server wired to a buffer sink and checks the structured events land
// with their trace IDs.
func TestServerEventLog(t *testing.T) {
	var buf bytes.Buffer
	srv, err := New(Config{
		Theta: cpuTheta(2, 64, "l1"),
		Obs:   obs.New(obs.Options{Log: &buf}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Shutdown(context.Background())
	})

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/admit",
		strings.NewReader(admitBody(t, cpuJob(t, "ev1", "l1", 0, 64))))
	req.Header.Set(obs.HeaderTraceID, "evtrace-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admit: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.HeaderTraceID); got != "evtrace-1" {
		t.Fatalf("response trace header = %q", got)
	}

	// A prepared hold left to expire logs through the sweep. Free the
	// admitted job's reservation first so the hold surely fits.
	if err := srv.Ledger().Release("ev1"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Ledger().Prepare("k-exp", "j-exp", cpuTheta(1, 10, "l1"), 10, 10, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Ledger().Advance(20); err != nil {
		t.Fatal(err)
	}

	log := buf.String()
	for _, want := range []string{
		"event=admit.decision", "trace=evtrace-1", "event=ledger.reserve",
		"event=ledger.lease_expired", "key=k-exp",
	} {
		if !strings.Contains(log, want) {
			t.Errorf("event log missing %q:\n%s", want, log)
		}
	}
}
