// Command rotaload hammers a running rotad daemon with a synthetic
// workload stream and reports throughput and decision-latency
// percentiles — the client half of the rotad selftest, usable against
// any live daemon.
//
// Usage:
//
//	rotad -addr :8080 &
//	rotaload -addr http://localhost:8080 -n 1000 -clients 8
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/assure"
	"repro/internal/resource"
	"repro/internal/server"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rotaload:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rotaload", flag.ContinueOnError)
	addr := fs.String("addr", "http://localhost:8080", "base URL of the rotad daemon; comma-separated list spreads load across a cluster's nodes")
	n := fs.Int("n", 1000, "total admit requests")
	clients := fs.Int("clients", 4, "concurrent clients")
	seed := fs.Int64("seed", 1, "workload seed")
	locations := fs.Int("locations", 4, "locations to spread jobs across (l1..lN, must match the daemon's)")
	slack := fs.Float64("slack", 3, "deadline slack factor")
	release := fs.Bool("release", true, "release each admitted job immediately")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request HTTP timeout")
	csv := fs.Bool("csv", false, "emit CSV")
	slowlog := fs.Int("slowlog", 0, "report the N slowest requests with their trace IDs (feed to rotatrace -spans)")
	queryFrac := fs.Float64("query-frac", 0, "fraction of requests issued as one-shot temporal queries instead of admits (0..1)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *queryFrac < 0 || *queryFrac > 1 {
		return fmt.Errorf("-query-frac %v outside [0,1]", *queryFrac)
	}
	var baseURLs []string
	for _, a := range strings.Split(*addr, ",") {
		a = strings.TrimSuffix(strings.TrimSpace(a), "/")
		if a == "" {
			continue
		}
		if !strings.Contains(a, "://") {
			a = "http://" + a
		}
		baseURLs = append(baseURLs, a)
	}
	if len(baseURLs) == 0 {
		return fmt.Errorf("-addr names no targets")
	}
	baseURL := baseURLs[0]

	locs := make([]resource.Location, *locations)
	for i := range locs {
		locs[i] = resource.Location(fmt.Sprintf("l%d", i+1))
	}
	jobs, err := workload.Generate(workload.Config{
		Seed:             *seed,
		Locations:        locs,
		NumJobs:          min(*n, 4096),
		MeanInterarrival: 8,
		ActorsMin:        1,
		ActorsMax:        3,
		StepsMin:         1,
		StepsMax:         4,
		SendProb:         0.2,
		MigrateProb:      0.05,
		EvalWeightMax:    3,
		SlackFactor:      *slack,
	})
	if err != nil {
		return err
	}

	report, err := server.RunLoad(context.Background(), server.LoadConfig{
		BaseURLs:        baseURLs,
		Jobs:            jobs,
		Requests:        *n,
		Clients:         *clients,
		ReleaseAdmitted: *release,
		Timeout:         *timeout,
		SlowLog:         *slowlog,
		QueryFrac:       *queryFrac,
	})
	if err != nil {
		return err
	}

	t := metrics.NewTable(
		fmt.Sprintf("rotaload: %d requests, %d clients -> %s", *n, *clients, strings.Join(baseURLs, ",")),
		"metric", "value")
	t.AddRow("requests", report.Requests)
	t.AddRow("admitted", report.Admitted)
	t.AddRow("rejected", report.Rejected)
	t.AddRow("released", report.Released)
	t.AddRow("errors", report.Errors)
	t.AddRow("loadgen_redirects", report.Redirects)
	t.AddRow("duration ms", float64(report.Duration.Microseconds())/1000)
	t.AddRow("throughput req/s", report.Throughput)
	t.AddRow("latency mean µs", report.MeanUS)
	t.AddRow("latency p50 µs", report.P50US)
	t.AddRow("latency p90 µs", report.P90US)
	t.AddRow("latency p99 µs", report.P99US)
	t.AddRow("latency max µs", report.MaxUS)
	if report.Queries > 0 {
		t.AddRow("queries", report.Queries)
		t.AddRow("queries holding", report.QueryHolds)
		t.AddRow("query latency mean µs", report.QueryMeanUS)
		t.AddRow("query latency p50 µs", report.QueryP50US)
		t.AddRow("query latency p99 µs", report.QueryP99US)
	}

	// Server-side decision stats, when the daemon is reachable for them.
	if stats, err := server.FetchStats(context.Background(), baseURL); err == nil {
		t.AddRow("server decisions", stats.Decisions)
		t.AddRow("server decision p50 µs", stats.DecisionLatencyUS.P50)
		t.AddRow("server decision p99 µs", stats.DecisionLatencyUS.P99)
	}
	// The daemon's own account of the run: did every admitted deadline
	// hold? /v1/assure answers for one node or, via fan-out, a cluster.
	if as, err := fetchAssure(context.Background(), baseURL, *timeout); err == nil {
		t.AddRow("promise_violations", as.Violated)
		t.AddRow("promises kept", as.Kept)
		t.AddRow("promises active", as.Active)
		t.AddRow("slo attainment", as.Attainment)
		t.AddRow("violation burn rate/min", as.BurnRate)
	}
	// And the Prometheus exposition, when the daemon serves one: the
	// counters a dashboard would scrape, read back over the same wire.
	if m, err := scrapeMetrics(context.Background(), baseURL, *timeout); err == nil {
		for _, row := range []struct{ label, family string }{
			{"scrape admitted_total", "rota_admitted_total"},
			{"scrape rejected_total", "rota_rejected_total"},
			{"scrape timeouts_total", "rota_timeouts_total"},
			{"scrape queue_depth", "rota_queue_depth"},
			{"scrape ledger commitments", "rota_ledger_commitments"},
			{"scrape queries_total", "rota_queries_total"},
			{"scrape ledger epoch", "rota_ledger_epoch"},
		} {
			if v, ok := obs.MetricValue(m, row.family, ""); ok {
				t.AddRow(row.label, v)
			}
		}
	}
	if report.UnexplainedRejects > 0 {
		t.AddRow("rejects without provenance", report.UnexplainedRejects)
	}
	if *csv {
		t.RenderCSV(out)
	} else {
		t.Render(out)
	}

	if len(report.Slow) > 0 {
		fmt.Fprintln(out)
		st := metrics.NewTable(
			fmt.Sprintf("slow log: %d slowest requests (rotatrace -spans -trace <trace> %s/debug/rota/trace)", len(report.Slow), baseURL),
			"trace", "job", "admit", "latency µs", "slack@admit")
		for _, s := range report.Slow {
			st.AddRow(s.Trace, s.Job, s.Admit, s.LatencyUS, s.SlackAtAdmit)
		}
		if *csv {
			st.RenderCSV(out)
		} else {
			st.Render(out)
		}
	}

	if report.Errors > 0 {
		return fmt.Errorf("%d of %d requests errored", report.Errors, report.Requests)
	}
	return nil
}

// fetchAssure reads the promise-ledger stats from GET /v1/assure. The
// shape differs between a single node (a Report with a stats block) and
// a cluster member (a fan-out response with summed totals); decode both
// and pick whichever the daemon sent.
func fetchAssure(ctx context.Context, baseURL string, timeout time.Duration) (assure.Stats, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/assure", nil)
	if err != nil {
		return assure.Stats{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return assure.Stats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return assure.Stats{}, fmt.Errorf("rotaload: %s/v1/assure returned %d", baseURL, resp.StatusCode)
	}
	var ar struct {
		Cluster bool         `json:"cluster"`
		Stats   assure.Stats `json:"stats"`
		Totals  assure.Stats `json:"totals"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&ar); err != nil {
		return assure.Stats{}, err
	}
	if ar.Cluster {
		return ar.Totals, nil
	}
	return ar.Stats, nil
}

// scrapeMetrics fetches and parses the daemon's Prometheus exposition.
func scrapeMetrics(ctx context.Context, baseURL string, timeout time.Duration) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("rotaload: %s/metrics returned %d", baseURL, resp.StatusCode)
	}
	return obs.ParseMetrics(io.LimitReader(resp.Body, 4<<20))
}
