package server

import (
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/assure"
)

// Prometheus exposition for the daemon core. Every exported field of
// StatsResponse (and the TwoPhaseCounters it embeds) has a counterpart
// family here; the obs metrics-lint test enforces the mapping, so a
// stat added to /v1/stats without an exposition line fails CI.

// CollectMetrics implements obs.Collector: it appends the daemon's
// families to the exposition. The cluster layer calls this too, so in
// cluster mode one scrape covers both layers.
func (s *Server) CollectMetrics(e *obs.Exposition) {
	st := s.Stats()

	e.Gauge("rota_uptime_seconds", "Seconds since the daemon started.", nil, time.Since(s.started).Seconds())
	bi := st.Build
	e.Gauge("rota_build_info", "Build metadata as labels; the value is always 1.",
		obs.L("go_version", bi.GoVersion).With("module", bi.Module).With("version", bi.Version), 1)
	e.Gauge("rota_ledger_now", "The ledger clock, in ticks.", nil, float64(st.Now))
	e.Gauge("rota_ledger_shards", "Location shards in the live ledger.", nil, float64(st.Shards))
	e.Gauge("rota_ledger_commitments", "Live admitted commitments.", nil, float64(st.Commitments))
	e.Gauge("rota_ledger_holds", "Live leased two-phase holds.", nil, float64(st.Holds))

	e.Counter("rota_decisions_total", "Admission verdicts reached (admitted + rejected).", nil, float64(st.Decisions))
	e.Counter("rota_admitted_total", "Jobs admitted with a reserved witness plan.", nil, float64(st.Admitted))
	e.Counter("rota_rejected_total", "Jobs refused by the Theorem-4 check.", nil, float64(st.Rejected))
	e.Counter("rota_released_total", "Commitments released via the API.", nil, float64(st.Released))
	e.Counter("rota_errors_total", "Requests that failed before a verdict.", nil, float64(st.Errors))
	e.Counter("rota_timeouts_total", "Admissions that exceeded the decision deadline.", nil, float64(st.TimedOut))

	e.Gauge("rota_queue_depth", "Admissions waiting for a decision slot.", nil, float64(st.QueueDepth))
	e.Gauge("rota_inflight_decisions", "Admissions holding a decision slot (deciding).", nil, float64(st.InFlight))
	e.Gauge("rota_workers", "Decision slots: the bound on concurrent admission decisions.", nil, float64(s.cfg.Workers))

	tp := st.TwoPhase
	e.Counter("rota_twophase_total", "Two-phase participant operations served, by op.", obs.L("op", "prepare"), float64(tp.Prepares))
	e.Counter("rota_twophase_total", "", obs.L("op", "commit"), float64(tp.Commits))
	e.Counter("rota_twophase_total", "", obs.L("op", "abort"), float64(tp.Aborts))
	e.Counter("rota_leases_expired_total", "Prepared holds reclaimed by the lease-expiry sweep.", nil, float64(tp.LeasesExpired))
	e.Counter("rota_not_owned_rejects_total", "Requests naming locations this node does not own.", nil, float64(tp.NotOwnedRejects))

	ah := st.AdmitHot
	e.Counter("rota_admit_batches_total", "Admission batches executed on the hot path.", nil, float64(ah.Batches))
	e.Counter("rota_admit_batched_jobs_total", "Jobs decided through the admission batch path.", nil, float64(ah.BatchedJobs))
	e.Counter("rota_admit_plan_retries_total", "Optimistic plans re-run after a validation conflict.", nil, float64(ah.PlanRetries))
	e.Counter("rota_admit_plan_fallbacks_total", "Jobs that exhausted optimistic retries and planned under the shard locks.", nil, float64(ah.PlanFallbacks))
	e.Counter("rota_free_view_patches_total", "Incremental free-view cache patches applied.", nil, float64(ah.FreePatches))
	e.Counter("rota_free_view_recomputes_total", "Full free-view recomputes (theta minus reserved).", nil, float64(ah.FreeRecomputes))

	e.Summary("rota_decision_latency_us", "Decision service time once a slot is held (ledger + policy) in microseconds.", nil, s.latencyUS.Summary())

	q := st.Query
	e.Counter("rota_queries_total", "One-shot temporal queries evaluated.", nil, float64(q.Queries))
	e.Gauge("rota_ledger_epoch", "Ledger mutation epoch; every bump re-evaluates the standing queries.", nil, float64(q.Epoch))
	e.Gauge("rota_query_subscriptions", "Active standing-query subscriptions.", nil, float64(q.Subs.Active))
	e.Counter("rota_query_evals_total", "Standing-query re-evaluations run by the sweep loop.", nil, float64(q.Subs.Evals))
	e.Counter("rota_query_eval_errors_total", "Standing-query re-evaluations that errored (previous verdict kept).", nil, float64(q.Subs.EvalErrors))
	e.Counter("rota_query_flips_total", "Verdict flips detected across all standing queries.", nil, float64(q.Subs.Flips))
	e.Counter("rota_query_events_delivered_total", "Verdict events delivered to subscriber queues.", nil, float64(q.Subs.Delivered))
	e.Counter("rota_query_drops_total", "Verdict events dropped on full subscriber queues.", nil, float64(q.Subs.Drops))
	e.Counter("rota_query_webhook_errors_total", "Webhook verdict deliveries that failed.", nil, float64(q.Subs.WebhookErrors))
	e.Summary("rota_query_latency_us", "One-shot query evaluation time in microseconds.", nil, s.queryLatencyUS.Summary())

	sp := st.Spans
	e.Gauge("rota_span_store_capacity", "Span ring-buffer bound (0 when span tracing is off).", nil, float64(sp.Capacity))
	e.Gauge("rota_spans_live", "Finished spans currently held in the ring buffer.", nil, float64(sp.Live))
	e.Counter("rota_spans_recorded_total", "Spans recorded since start.", nil, float64(sp.Recorded))
	e.Counter("rota_spans_evicted_total", "Spans overwritten to keep the store within its bound.", nil, float64(sp.Evicted))

	as := st.Assure
	e.Gauge("rota_assure_active_promises", "Admitted jobs whose deadline window is still open here.", nil, float64(as.Active))
	e.Counter("rota_assure_promises_total", "Promise dispositions reached, by terminal state.", obs.L("state", "kept"), float64(as.Kept))
	e.Counter("rota_assure_promises_total", "", obs.L("state", "violated"), float64(as.Violated))
	e.Counter("rota_assure_promises_total", "", obs.L("state", "orphaned"), float64(as.Orphaned))
	e.Counter("rota_assure_promises_total", "", obs.L("state", "evicted-with-job"), float64(as.EvictedWithJob))
	e.Counter("rota_assure_promises_total", "", obs.L("state", "transferred"), float64(as.Transferred))
	e.Gauge("rota_assure_attainment", "Kept promises over terminal outcomes (1.0 before any outcome).", nil, as.Attainment)
	e.Gauge("rota_assure_burn_rate", "Promise violations per minute over the trailing 60s.", nil, as.BurnRate)
	e.Summary("rota_assure_slack_at_admit_ticks", "Deadline minus witness-plan finish at admission, in ticks.", nil, s.cfg.Assure.SlackAtAdmit())
	e.Summary("rota_assure_slack_at_completion_ticks", "Deadline minus completion time at resolution, in ticks.", nil, s.cfg.Assure.SlackAtCompletion())
	for _, lo := range sortedLocationOutcomes(s.cfg.Assure.Locations()) {
		e.Counter("rota_assure_location_promises_total", "Promise outcomes per footprint location.",
			obs.L("loc", lo.loc).With("state", "kept"), float64(lo.out.Kept))
		e.Counter("rota_assure_location_promises_total", "",
			obs.L("loc", lo.loc).With("state", "violated"), float64(lo.out.Violated))
		e.Gauge("rota_assure_location_attainment", "Per-location SLO attainment.",
			obs.L("loc", lo.loc), lo.out.Attainment)
	}

	fr := st.FlightRec
	e.Gauge("rota_flightrec_snapshots", "Flight-recorder snapshots currently held.", nil, float64(fr.Snapshots))
	e.Gauge("rota_flightrec_snapshot_capacity", "Flight-recorder snapshot ring bound.", nil, float64(fr.SnapshotCapacity))
	e.Counter("rota_flightrec_triggers_total", "Anomaly triggers fired (including deduplicated ones).", nil, float64(fr.Triggers))
	e.Counter("rota_flightrec_triggers_deduped_total", "Triggers suppressed by the per-kind dedup window.", nil, float64(fr.Deduped))
	e.Counter("rota_flightrec_snapshots_evicted_total", "Snapshots evicted to keep the ring within its bound.", nil, float64(fr.Evicted))
	e.Gauge("rota_flightrec_events_buffered", "Log lines currently in the flight-recorder ring.", nil, float64(fr.Events))
	e.Gauge("rota_flightrec_event_capacity", "Flight-recorder event ring bound.", nil, float64(fr.EventCapacity))

	for _, es := range obs.SortedEndpoints(s.httpStats) {
		es.Collect(e, obs.L("layer", "server"))
	}
}

// sortedLocationOutcomes orders the per-location assure table so the
// exposition is deterministic.
func sortedLocationOutcomes(m map[string]assure.LocationOutcomes) []locOutcome {
	if len(m) == 0 {
		return nil
	}
	out := make([]locOutcome, 0, len(m))
	for loc, lo := range m {
		out = append(out, locOutcome{loc: loc, out: lo})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].loc < out[j].loc })
	return out
}

type locOutcome struct {
	loc string
	out assure.LocationOutcomes
}
