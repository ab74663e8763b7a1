package obs_test

import (
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

// The metrics lint: every exported stat field the JSON API surfaces must
// have a counterpart family in the live Prometheus exposition. Adding a
// field to StatsResponse / TwoPhaseCounters / ClusterCounters without
// teaching CollectMetrics (and this mapping) about it fails here — which
// is the point: /v1/stats and /metrics may never drift apart.

// recurse marks a nested struct whose fields are linted individually.
const recurse = "<recurse>"

// statFamilies maps each stat's JSON tag to its exposition family. A
// summary family covers all the scalar digests derived from the same
// histogram.
var statFamilies = map[string]string{
	// server.StatsResponse
	"uptime_seconds":      "rota_uptime_seconds",
	"build":               recurse,
	"now":                 "rota_ledger_now",
	"ledger_epoch":        "rota_ledger_epoch",
	"shards":              "rota_ledger_shards",
	"commitments":         "rota_ledger_commitments",
	"decisions":           "rota_decisions_total",
	"admitted":            "rota_admitted_total",
	"rejected":            "rota_rejected_total",
	"released":            "rota_released_total",
	"errors":              "rota_errors_total",
	"timed_out":           "rota_timeouts_total",
	"queue_depth":         "rota_queue_depth",
	"in_flight":           "rota_inflight_decisions",
	"holds":               "rota_ledger_holds",
	"two_phase":           recurse,
	"admit_hot":           recurse,
	"decision_latency_us": "rota_decision_latency_us",
	"spans":               recurse,
	"query":               recurse,
	"assure":              recurse,
	"flightrec":           recurse,
	// server.BuildInfo
	"go_version":     "rota_build_info",
	"module_path":    "rota_build_info",
	"module_version": "rota_build_info",
	// assure.Stats
	"promises_active":           "rota_assure_active_promises",
	"promises_kept":             "rota_assure_promises_total",
	"promises_violated":         "rota_assure_promises_total",
	"promises_orphaned":         "rota_assure_promises_total",
	"promises_evicted_with_job": "rota_assure_promises_total",
	"promises_transferred":      "rota_assure_promises_total",
	"slo_attainment":            "rota_assure_attainment",
	"violation_burn_rate":       "rota_assure_burn_rate",
	"slack_at_admit_ticks":      "rota_assure_slack_at_admit_ticks",
	"slack_at_completion_ticks": "rota_assure_slack_at_completion_ticks",
	// flightrec.Stats
	"flight_snapshots":         "rota_flightrec_snapshots",
	"flight_snapshot_capacity": "rota_flightrec_snapshot_capacity",
	"flight_triggers":          "rota_flightrec_triggers_total",
	"flight_triggers_deduped":  "rota_flightrec_triggers_deduped_total",
	"flight_snapshots_evicted": "rota_flightrec_snapshots_evicted_total",
	"flight_events_buffered":   "rota_flightrec_events_buffered",
	"flight_event_capacity":    "rota_flightrec_event_capacity",
	// server.AdmitHotCounters
	"batches":         "rota_admit_batches_total",
	"batched_jobs":    "rota_admit_batched_jobs_total",
	"plan_retries":    "rota_admit_plan_retries_total",
	"plan_fallbacks":  "rota_admit_plan_fallbacks_total",
	"free_patches":    "rota_free_view_patches_total",
	"free_recomputes": "rota_free_view_recomputes_total",
	// server.QueryStats
	"queries":          "rota_queries_total",
	"epoch":            "rota_ledger_epoch",
	"subscriptions":    recurse,
	"query_latency_us": "rota_query_latency_us",
	// query.ManagerStats
	"active_subscriptions": "rota_query_subscriptions",
	"evals":                "rota_query_evals_total",
	"eval_errors":          "rota_query_eval_errors_total",
	"flips":                "rota_query_flips_total",
	"delivered":            "rota_query_events_delivered_total",
	"drops":                "rota_query_drops_total",
	"webhook_errors":       "rota_query_webhook_errors_total",
	// span.Stats
	"capacity": "rota_span_store_capacity",
	"live":     "rota_spans_live",
	"recorded": "rota_spans_recorded_total",
	"evicted":  "rota_spans_evicted_total",
	// server.TwoPhaseCounters
	"prepares":          "rota_twophase_total",
	"commits":           "rota_twophase_total",
	"aborts":            "rota_twophase_total",
	"leases_expired":    "rota_leases_expired_total",
	"not_owned_rejects": "rota_not_owned_rejects_total",
	// cluster.ClusterCounters
	"forwarded":             "rota_cluster_forwarded_total",
	"misrouted":             "rota_cluster_misrouted_total",
	"coordinations":         "rota_cluster_coordinations_total",
	"coord_admitted":        "rota_cluster_coord_admitted_total",
	"coord_rejected":        "rota_cluster_coord_rejected_total",
	"coord_failed":          "rota_cluster_coord_failed_total",
	"injected_crashes":      "rota_cluster_injected_crashes_total",
	"migrations":            "rota_cluster_migrations_total",
	"releases":              "rota_cluster_releases_total",
	"fanout_queries":        "rota_cluster_fanout_queries_total",
	"membership_epoch":      "rota_cluster_membership_epoch",
	"joins":                 "rota_cluster_joins_total",
	"leaves":                "rota_cluster_leaves_total",
	"handoffs":              "rota_cluster_handoffs_total",
	"promotions":            "rota_cluster_promotions_total",
	"redirects_served":      "rota_cluster_redirects_served_total",
	"redirects_followed":    "rota_cluster_redirects_followed_total",
	"table_applies":         "rota_cluster_table_applies_total",
	"shadow_ships":          "rota_cluster_shadow_ships_total",
	"shadow_misses":         "rota_cluster_shadow_misses_total",
	"auto_evictions":        "rota_cluster_auto_evictions_total",
	"rejoins":               "rota_cluster_rejoins_total",
	"intent_repairs":        "rota_cluster_intent_repairs_total",
	"fenced_gossip":         "rota_cluster_fenced_gossip_total",
	"suspected_peers":       "rota_cluster_suspected_peers",
	"coord_latency_mean_us": "rota_cluster_coordination_latency_us",
	"coord_latency_p50_us":  "rota_cluster_coordination_latency_us",
	"coord_latency_p99_us":  "rota_cluster_coordination_latency_us",
}

// lintStruct walks a stats struct's exported fields and checks each
// mapped family exists in the exposition.
func lintStruct(t *testing.T, e *obs.Exposition, typ reflect.Type, owner string) {
	t.Helper()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		tag := strings.Split(f.Tag.Get("json"), ",")[0]
		if tag == "" || tag == "-" {
			continue
		}
		family, ok := statFamilies[tag]
		if !ok {
			t.Errorf("%s.%s (json %q) has no exposition family: add one in CollectMetrics and map it in statFamilies", owner, f.Name, tag)
			continue
		}
		if family == recurse {
			lintStruct(t, e, f.Type, owner+"."+f.Name)
			continue
		}
		if !e.HasFamily(family) {
			t.Errorf("%s.%s maps to family %q, which the live exposition does not emit", owner, f.Name, family)
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
	lintStruct(t, e, reflect.TypeOf(server.StatsResponse{}), "server.StatsResponse")
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
	lintStruct(t, e, reflect.TypeOf(server.StatsResponse{}), "server.StatsResponse")
	lintStruct(t, e, reflect.TypeOf(cluster.ClusterCounters{}), "cluster.ClusterCounters")
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
