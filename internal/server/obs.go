package server

import (
	"sort"

	"repro/internal/obs"
	"repro/internal/obs/assure"
)

// Prometheus exposition for the daemon core. Each /v1/stats signal is
// defined once, by the metric tag on its StatsResponse field, and
// obs.CollectStruct renders the Stats() snapshot from those tags. Only
// families that are not a stats field are written here: the worker
// bound, the build labels, the per-location assure table and the
// per-endpoint HTTP families. The obs metrics lint fails on a stats
// field with no metric tag.

// CollectMetrics implements obs.Collector: it appends the daemon's
// families to the exposition. The cluster layer calls this too, so in
// cluster mode one scrape covers both layers.
func (s *Server) CollectMetrics(e *obs.Exposition) {
	st := s.Stats()
	obs.CollectStruct(e, st)

	e.Gauge("rota_workers", "Decision slots: the bound on concurrent admission decisions.", nil, float64(s.cfg.Workers))
	bi := st.Build
	e.Gauge("rota_build_info", "Build metadata as labels; the value is always 1.",
		obs.L("go_version", bi.GoVersion).With("module", bi.Module).With("version", bi.Version), 1)
	for _, lo := range sortedLocationOutcomes(s.cfg.Assure.Locations()) {
		e.Counter("rota_assure_location_promises_total", "Promise outcomes per footprint location.",
			obs.L("loc", lo.loc).With("state", "kept"), float64(lo.out.Kept))
		e.Counter("rota_assure_location_promises_total", "",
			obs.L("loc", lo.loc).With("state", "violated"), float64(lo.out.Violated))
		e.Gauge("rota_assure_location_attainment", "Per-location SLO attainment.",
			obs.L("loc", lo.loc), lo.out.Attainment)
	}

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
