package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs/span"
	"repro/internal/server"
	"repro/internal/workload"
)

// fakeCounts is what a fakeDaemon says it did.
type fakeCounts struct {
	admitted, rejected, queries, advances atomic.Int64
}

func (c *fakeCounts) decisions() decisions {
	return decisions{admitted: int(c.admitted.Load()), rejected: int(c.rejected.Load()), queries: int(c.queries.Load())}
}

// fakeDaemon answers the routes the load generator uses: admits are
// admitted (jobs whose name ends in 1 are rejected with provenance),
// queries hold, advances succeed. failTrace, when set, fails that one
// request with a 500.
func fakeDaemon(t *testing.T, failTrace string) (*httptest.Server, *fakeCounts) {
	t.Helper()
	var counts fakeCounts
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/admit", func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Rota-Trace-Id") == failTrace {
			http.Error(w, `{"error":"injected"}`, http.StatusInternalServerError)
			return
		}
		body, _ := io.ReadAll(r.Body)
		job, err := server.DecodeAdmitRequest(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp := server.AdmitResponse{Job: job.Dist.Name, Deadline: job.Dist.Deadline}
		if strings.HasSuffix(job.Dist.Name, "1") {
			resp.Reason = "no witness schedule: insufficient cpu@l1"
			resp.Provenance = span.Classify(resp.Reason)
			counts.rejected.Add(1)
		} else {
			resp.Admit, resp.Finish = true, job.Dist.Deadline
			counts.admitted.Add(1)
		}
		_ = json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc("GET /v1/query", func(w http.ResponseWriter, r *http.Request) {
		counts.queries.Add(1)
		_ = json.NewEncoder(w).Encode(server.QueryResponse{Query: r.URL.Query().Get("q"), Holds: true})
	})
	mux.HandleFunc("POST /v1/advance", func(w http.ResponseWriter, r *http.Request) {
		counts.advances.Add(1)
		_, _ = w.Write([]byte(`{}`))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, &counts
}

func testStream(t *testing.T, n int) *stream {
	t.Helper()
	s := &spec{Name: "test", Nodes: 1, Locations: 4, Lag: 32, Gen: workload.Config{
		MeanInterarrival: 1, ActorsMin: 1, ActorsMax: 2, StepsMin: 1, StepsMax: 2, SlackFactor: 3,
	}}
	st, err := buildStream(s, 7, n)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestAccountingCountsInjectedFailure(t *testing.T) {
	ts, counts := fakeDaemon(t, tracePrefix+"c3") // request 3 is an admit
	st := testStream(t, 200)
	lg := newLoadgen(&daemon{nodes: []*node{{id: "n1", url: ts.URL}}}, 2, nil)
	defer lg.close()
	res := lg.run(st, len(st.reqs), 0, time.Minute, "c")
	if res.err != nil {
		t.Fatal(res.err)
	}
	tl := res.tally()
	if err := reconcile(tl, res.sent, 200, counts.decisions()); err != nil {
		t.Fatalf("accounting %+v: %v", tl, err)
	}
	if tl.failed != 1 || tl.queries != 40 || tl.bad != 0 {
		t.Errorf("tally %+v: want 1 failed, 40 queries, no bad verdicts", tl)
	}
	if got := tl.errorRatio(); got != 1.0/200 {
		t.Errorf("error ratio %v, want 1/200", got)
	}
	if !strings.Contains(res.firstFail, "500") {
		t.Errorf("first failure %q does not name the 500", res.firstFail)
	}
	if tl.admitted == 0 || tl.rejected == 0 {
		t.Errorf("tally %+v: want both admits and rejects", tl)
	}
	if counts.advances.Load() == 0 {
		t.Error("the generator never advanced the clock")
	}
	if d := lg.dials.Load(); d > 2 {
		t.Errorf("%d dials for 2 connections", d)
	}
}

func TestVerdictChecksFlagBrokenContract(t *testing.T) {
	st := testStream(t, 10)
	r := &st.reqs[0]
	cases := []struct {
		name string
		resp server.AdmitResponse
		bad  bool
	}{
		{"admit by deadline", server.AdmitResponse{Admit: true, Finish: r.deadline, Deadline: r.deadline}, false},
		{"admit past deadline", server.AdmitResponse{Admit: true, Finish: r.deadline + 1, Deadline: r.deadline}, true},
		{"reject with provenance", server.AdmitResponse{Provenance: &span.Provenance{Stage: "plan"}}, false},
		{"reject without provenance", server.AdmitResponse{}, true},
	}
	for _, c := range cases {
		c.resp.Job = string(st.bytes(r.name))
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_ = json.NewEncoder(w).Encode(c.resp)
		}))
		lg := newLoadgen(&daemon{nodes: []*node{{id: "n1", url: ts.URL}}}, 1, nil)
		var o outcome
		if err := lg.send(st, r, "pb-t", &o); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if o.bad != c.bad {
			t.Errorf("%s: bad = %v, want %v", c.name, o.bad, c.bad)
		}
		lg.close()
		ts.Close()
	}
}

func TestReconcileCatchesMiscountedRequests(t *testing.T) {
	good := tally{attempted: 10, admitted: 5, rejected: 3, queries: 1, failed: 1}
	daemon := decisions{admitted: 5, rejected: 3, queries: 1}
	if err := reconcile(good, 10, 10, daemon); err != nil {
		t.Fatalf("consistent accounting refused: %v", err)
	}
	// The failed request may have been decided on the daemon all the same.
	if err := reconcile(good, 10, 10, decisions{admitted: 6, rejected: 3, queries: 1}); err != nil {
		t.Fatalf("verdict lost on the way back refused: %v", err)
	}
	doubled := good
	doubled.attempted++
	doubled.admitted++
	dropped := good
	dropped.attempted--
	dropped.queries--
	for _, c := range []struct {
		name   string
		t      tally
		sent   int64
		due    int
		daemon decisions
	}{
		{"double-counted verdict", doubled, 10, 10, daemon},
		{"dropped outcome", dropped, 10, 10, daemon},
		{"request never sent", good, 10, 11, daemon},
		{"admit the daemon never decided", good, 10, -1, decisions{admitted: 4, rejected: 3, queries: 1}},
		{"verdicts the client never saw", good, 10, -1, decisions{admitted: 6, rejected: 4, queries: 1}},
		{"query the daemon never answered", good, 10, -1, decisions{admitted: 5, rejected: 3, queries: 0}},
	} {
		if err := reconcile(c.t, c.sent, c.due, c.daemon); err == nil {
			t.Errorf("%s: accounting passed", c.name)
		}
	}
}
