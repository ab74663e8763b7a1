package obs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/compute"
	"repro/internal/cost"
	"repro/internal/interval"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/resource"
	"repro/internal/server"
	"repro/internal/workload"
)

// The metrics lint: each stat /v1/stats surfaces is defined once, by
// the metric tag on its field (see obs.CollectStruct). Every JSON-tagged
// leaf of a stats struct must carry one, every family a tag names must
// be in the live exposition, and one scrape may not repeat a sample.
func lintStats(t *testing.T, e *obs.Exposition, typ reflect.Type) {
	t.Helper()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		tag, tagged := f.Tag.Lookup("metric")
		switch key := f.Tag.Get("json"); {
		case !f.IsExported() || key == "" || key == "-":
		case !tagged && f.Type.Kind() == reflect.Struct:
			lintStats(t, e, f.Type)
		case !tagged:
			t.Errorf("%s.%s (json %q) has no metric tag", typ, f.Name, key)
		default:
			family, ok := strings.CutPrefix(tag, "=")
			if !ok {
				_, family, _ = strings.Cut(tag, ",")
				family, _, _ = strings.Cut(family, ",")
			}
			if family, _, _ = strings.Cut(family, "{"); !e.HasFamily(family) {
				t.Errorf("%s.%s names family %q, which the live exposition does not emit", typ, f.Name, family)
			}
		}
	}
}

// lintSamples fails on two samples with the same name and label set,
// which ParseMetrics (and any scraper) would collapse into one.
func lintSamples(t *testing.T, e *obs.Exposition) {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Render(&buf); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, line := range strings.Split(buf.String(), "\n") {
		if sp := strings.LastIndexByte(line, ' '); sp > 0 && !strings.HasPrefix(line, "#") {
			if seen[line[:sp]] {
				t.Errorf("sample %s appears twice in one scrape", line[:sp])
			}
			seen[line[:sp]] = true
		}
	}
}

func lintTheta() resource.Set {
	var s resource.Set
	s.Add(resource.NewTerm(resource.FromUnits(2), resource.CPUAt("l1"), interval.New(0, 100)))
	return s
}

func TestMetricsLintServer(t *testing.T) {
	srv, err := server.New(server.Config{Theta: lintTheta()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })

	e := obs.NewExposition()
	srv.CollectMetrics(e)
	lintStats(t, e, reflect.TypeOf(server.StatsResponse{}))
	lintSamples(t, e)
}

func TestMetricsLintCluster(t *testing.T) {
	nd, err := cluster.New(cluster.Config{
		Self:           "n1",
		Peers:          []cluster.Peer{{ID: "n1", URL: "http://127.0.0.1:1", Locations: []resource.Location{"l1"}}},
		Server:         server.Config{Theta: lintTheta()},
		GossipInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = nd.Shutdown(ctx)
	})

	e := obs.NewExposition()
	nd.CollectMetrics(e)
	// One cluster scrape must satisfy both layers' stat structs.
	lintStats(t, e, reflect.TypeOf(server.StatsResponse{}))
	lintStats(t, e, reflect.TypeOf(cluster.ClusterCounters{}))
	lintSamples(t, e)
}

// The span lint, same spirit as the metrics lint: every span kind must
// carry a documented attribute schema, and live spans may only use
// registered kinds and schema'd attribute keys. Adding a span.Attr call
// with a new key without documenting it in defineKind fails here.

func lintJob(t *testing.T, name string, deadline interval.Time) string {
	t.Helper()
	actor := compute.ActorName(name + ".a")
	c, err := cost.Realize(cost.Paper(), actor, compute.Evaluate(actor, "l1", 1))
	if err != nil {
		t.Fatal(err)
	}
	d, err := compute.NewDistributed(name, 0, deadline, c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(workload.Job{Dist: d, Arrival: 0})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestMetricsLintSpanKinds(t *testing.T) {
	// Static half: every registered kind documents itself and each of
	// its attributes (defineKind enforces the pairing; this enforces
	// that the doc strings are not empty placeholders).
	for _, ks := range span.Kinds() {
		if ks.Doc == "" {
			t.Errorf("span kind %q has no doc string", ks.Name)
		}
		for attr, doc := range ks.Attrs {
			if doc == "" {
				t.Errorf("span kind %q attribute %q has no doc string", ks.Name, attr)
			}
		}
	}

	// Live half: drive one admitted and one rejected request through a
	// real server and check every span it recorded against the registry.
	store := span.NewStore(span.DefaultCapacity, "lint")
	var theta resource.Set
	theta.Add(resource.NewTerm(resource.FromUnits(16), resource.CPUAt("l1"), interval.New(0, 100)))
	srv, err := server.New(server.Config{Theta: theta, Spans: store})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Shutdown(context.Background())
	})
	for _, body := range []string{
		lintJob(t, "lint-ok", 64), // feasible: admit + validate/plan/reserve children
		lintJob(t, "lint-no", 1),  // hopeless deadline: rejected with provenance
	} {
		resp, err := http.Post(ts.URL+"/v1/admit", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	// Terminal spans end via defer after the response is written; give
	// the store a moment to see them.
	var recs []span.Record
	for deadline := time.Now().Add(2 * time.Second); ; {
		recs = store.Snapshot()
		if len(recs) >= 6 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(recs) == 0 {
		t.Fatal("no spans recorded by a live admit")
	}
	for _, rec := range recs {
		ks, ok := span.LookupKind(rec.Kind)
		if !ok {
			t.Errorf("live span uses unregistered kind %q: define it via defineKind", rec.Kind)
			continue
		}
		for key := range rec.Attrs {
			if _, ok := ks.Attrs[key]; !ok {
				t.Errorf("span kind %q carries undocumented attribute %q: document it in defineKind", rec.Kind, key)
			}
		}
		if rec.Status == span.StatusReject && rec.Provenance == nil && rec.Kind == span.KindAdmit {
			t.Errorf("terminal reject span for trace %s has no provenance", rec.Trace)
		}
	}
}
