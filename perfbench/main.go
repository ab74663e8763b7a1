// Command perfbench is rotad's admission benchmark. It boots rotad in
// process (rotad's default configuration: promise ledger, flight
// recorder and span store attached, event log discarded), drives it over
// loopback HTTP with keep-alive connections from a load generator in the
// same process, and reports what a client of the daemon sees.
//
//	go run . --workload loaded --seed 1 --seconds 30 --trace 0
//
// Each workload (see specs) runs one seeded request stream in two
// phases, each on a freshly booted daemon: an open loop at the
// workload's fixed offered rate, which gives the admit ratio, and a
// closed loop with one client per CPU, which gives the capacity. With
// --trace 1 the run instead wraps the client round trip, every node's
// handler and every peer transport in spans, replays the stream
// straight into a fresh ledger, and reports per-layer metrics, the
// open loop's latencies among them.
//
// Every run checks its outputs: clean ledger audits, no violated
// promise, request accounting that agrees with the daemon's own
// counters, every admit finishing by its deadline and every reject
// carrying provenance. A run that fails a check exits non-zero without
// reporting metrics. The last line of standard output is the JSON
// result.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// logf reports progress on standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// maxLate is the generator's lateness p99 above which an open-loop run
// is invalid: the generator itself could not keep its schedule. It sits
// above the Go scheduler's 10ms preemption slice, which a busy daemon
// sharing the process's CPUs can make the generator wait out.
const maxLate = 25 * time.Millisecond

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: loaded or federated")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 30, "measured seconds per run")
	traced := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	outDir := fs.String("out", "", "directory for the traced run's span dump (none if empty)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := findSpec(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		return errors.New("need --seconds > 0 and --trace 0 or 1")
	}
	b := &bench{spec: s, seed: *seed, seconds: *seconds, conns: runtime.NumCPU(), outDir: *outDir}
	if *traced == 1 {
		return b.traced(out)
	}
	return b.untraced(out)
}

// bench is one run of one workload.
type bench struct {
	spec    *spec
	seed    int64
	seconds float64
	conns   int
	outDir  string
}

func (b *bench) secs(share float64) time.Duration {
	return time.Duration(share * b.seconds * float64(time.Second))
}

// stream builds the request stream: the open phase's requests at the
// fixed rate, or as many as a closed phase of closedShare of the run
// could consume at the workload's MaxRate, whichever is more.
func (b *bench) stream(openShare, closedShare float64) (*stream, int, error) {
	nOpen := int(b.spec.Rate * openShare * b.seconds)
	n := max(nOpen, int(b.spec.MaxRate*closedShare*b.seconds))
	n = min(n, maxStream)
	nOpen = min(nOpen, n)
	start := time.Now()
	st, err := buildStream(b.spec, b.seed, n)
	if err != nil {
		return nil, 0, err
	}
	// Hand the generator's garbage back before anything is measured.
	debug.FreeOSMemory()
	logf("stream: %d requests, %.1f MB, built in %v", n, float64(st.size())/(1<<20), time.Since(start).Round(time.Millisecond))
	return st, nOpen, nil
}

func (b *bench) gap() time.Duration {
	return time.Duration(float64(time.Second) / b.spec.Rate)
}

// phase boots a daemon, runs the stream's first n requests against it
// (a closed phase has gap 0), checks it and shuts it down. inspect, if
// set, sees the daemon and load generator after the check.
func (b *bench) phase(st *stream, n int, gap, until time.Duration, prefix string, tr *tracer, inspect func(*daemon, *loadgen)) (*phaseResult, time.Duration, error) {
	d, setup, err := startDaemon(b.spec, tr)
	if err != nil {
		return nil, 0, err
	}
	defer d.shutdown()
	lg := newLoadgen(d, b.conns, tr)
	defer lg.close()
	res := lg.run(st, n, gap, until, prefix)
	logf("phase %s: %d requests in %v", prefix, res.tally().attempted, res.elapsed.Round(time.Millisecond))
	due := -1 // a closed loop stops when its time is up
	if gap > 0 {
		due = n
	}
	if err := gate(res, due, d); err != nil {
		return nil, 0, fmt.Errorf("%s phase: %w", prefix, err)
	}
	if inspect != nil {
		inspect(d, lg)
	}
	return res, setup, nil
}

// gate is the correctness check every phase must pass. due is the
// number of requests the phase had to send, -1 if it may stop early.
func gate(res *phaseResult, due int, d *daemon) error {
	var errs []string
	if res.err != nil {
		errs = append(errs, fmt.Sprintf("generator request failed: %v", res.err))
	}
	t := res.tally()
	if err := reconcile(t, res.sent, due, d.decisions()); err != nil {
		errs = append(errs, err.Error())
	}
	if t.bad > 0 {
		errs = append(errs, fmt.Sprintf("%d verdicts broke the contract (admit past deadline, reject without provenance, wrong job)", t.bad))
	}
	if err := d.check(); err != nil {
		errs = append(errs, err.Error())
	}
	if len(errs) > 0 {
		return errors.New(strings.Join(errs, "; "))
	}
	return nil
}

// reconcile checks the client's accounting against counts kept apart
// from it: the requests the workers sent (all due requests, in an open
// loop) and the verdicts the daemon says it gave. Every request sent is
// exactly one outcome; the daemon gave every verdict the client saw,
// and at most one more for each request the client saw fail (a verdict
// can be lost on the way back).
func reconcile(t tally, sent int64, due int, dc decisions) error {
	var errs []string
	if int64(t.attempted) != sent {
		errs = append(errs, fmt.Sprintf("client recorded %d outcomes for %d requests sent", t.attempted, sent))
	}
	if due >= 0 && sent != int64(due) {
		errs = append(errs, fmt.Sprintf("sent %d of %d due requests", sent, due))
	}
	if dc.admitted < t.admitted || dc.rejected < t.rejected ||
		dc.admitted+dc.rejected-t.admitted-t.rejected > t.failed {
		errs = append(errs, fmt.Sprintf("daemon decided %d admits and %d rejects, client saw %d and %d with %d failed",
			dc.admitted, dc.rejected, t.admitted, t.rejected, t.failed))
	}
	if dc.queries >= 0 && (dc.queries < t.queries || dc.queries-t.queries > t.failed) {
		errs = append(errs, fmt.Sprintf("daemon answered %d queries, client saw %d with %d failed", dc.queries, t.queries, t.failed))
	}
	if len(errs) > 0 {
		return errors.New("accounting off: " + strings.Join(errs, "; "))
	}
	return nil
}

// lateness returns the generator's own lateness samples (ns): how far
// past the due time it sent the requests it had waited for.
func lateness(res *phaseResult) []float64 {
	var xs []float64
	for _, o := range res.out {
		if o.slept {
			xs = append(xs, float64(o.sent-o.due))
		}
	}
	return xs
}

func checkGenerator(res *phaseResult) error {
	if p99, n := percentile(lateness(res), 99); time.Duration(p99) > maxLate {
		return fmt.Errorf("run invalid: open-loop generator fell behind (lateness p99 %v over %d sends > %v)",
			time.Duration(p99), n, maxLate)
	}
	return nil
}

// openLatencies returns the answered requests' latencies (ns), skipping
// the first tenth of the phase as warm-up. A request is timed from its
// due time, so waiting behind a busy connection counts; only when the
// generator was early and slept is it timed from the wake-up instead,
// because sleeps overshoot by the platform's timer granularity (about
// half a millisecond on a 1 kHz tick), which is the generator's lateness
// (loadgen.late_p99_ms), not the daemon's.
func openLatencies(res *phaseResult, query bool) []float64 {
	var xs []float64
	for _, o := range res.out[len(res.out)/10:] {
		if o.query == query && (o.status == admitted || o.status == rejected || o.status == answered) {
			from := o.due
			if o.slept {
				from = o.sent
			}
			xs = append(xs, float64(o.done-from))
		}
	}
	return xs
}

// capacity is the closed phase's answered requests per wall-clock
// second, corrected for the CPU time the hypervisor stole: each
// sampling interval's rate is divided by the share of the machine's CPU
// time that was not stolen in it. Time lost to waiting (locks, queues,
// idle workers) still counts against the figure; time a virtual
// machine's neighbours took does not. The figure is the median over the
// intervals of every given phase after its first tenth, so a collector
// cycle or a burst of interference moves one interval, not the figure.
func capacity(phases ...*phaseResult) (float64, int) {
	var rates []float64
	n := 0
	for _, res := range phases {
		for i := len(res.samples)/10 + 1; i < len(res.samples); i++ {
			a, b := res.samples[i-1], res.samples[i]
			if wall := (b.at - a.at).Seconds(); wall > 0 {
				rates = append(rates, float64(b.answered-a.answered)/(wall*unstolen(a.cpu, b.cpu)))
			}
		}
		n += res.tally().answered()
	}
	if len(rates) == 0 {
		for _, res := range phases {
			rates = append(rates, wallRate(res))
		}
	}
	return median(rates), n
}

// stolen is the share of the machine's CPU time the hypervisor stole
// over the closed phase's sampling intervals.
func stolen(res *phaseResult) float64 {
	if len(res.samples) < 2 {
		return 0
	}
	return 1 - unstolen(res.samples[0].cpu, res.samples[len(res.samples)-1].cpu)
}

// wallRate is the closed phase's answered requests per wall-clock second.
func wallRate(res *phaseResult) float64 {
	return ratio(float64(res.tally().answered()), res.elapsed.Seconds())
}

// untraced measures the end-to-end metrics.
func (b *bench) untraced(out io.Writer) error {
	// The closed loop runs closedRuns times, each on a fresh daemon: its
	// throughput moves by up to a fifth from one boot to the next (on a
	// 3-node cluster), so the figure pools the intervals of several.
	const openShare, closedShare, closedRuns = 0.5, 0.35, 3
	st, nOpen, err := b.stream(openShare, closedShare)
	if err != nil {
		return err
	}
	sampler := startRSS()
	defer sampler.end()
	// Set-up is timed on every boot, the phases' own included. A
	// standalone daemon boots in about a millisecond, so it also boots
	// bootsEach times before, between and after the phases, which
	// spreads the boots over the run's changing host load; a cluster
	// waits out a gossip round (a second) per boot and boots once more.
	var setups []float64
	bootsEach := 33
	if b.spec.Nodes > 1 {
		bootsEach = 1
	}
	boot := func(n int) error {
		for i := 0; i < n; i++ {
			d, setup, err := startDaemon(b.spec, nil)
			if err != nil {
				return err
			}
			d.shutdown()
			setups = append(setups, setup.Seconds())
		}
		return nil
	}
	if err := boot(bootsEach); err != nil {
		return err
	}
	open, setup, err := b.phase(st, nOpen, b.gap(), 0, "o", nil, nil)
	if err != nil {
		return err
	}
	setups = append(setups, setup.Seconds())
	if err := checkGenerator(open); err != nil {
		return err
	}
	// Memory is read up to here: the open phase's work is fixed by the
	// seed, while a closed phase of fixed length holds more state the
	// faster the daemon runs (every admit leaves a promise behind).
	peak := sampler.end()
	if b.spec.Nodes == 1 {
		if err := boot(bootsEach); err != nil {
			return err
		}
	}
	var closed []*phaseResult
	for k := 0; k < closedRuns; k++ {
		res, setup, err := b.phase(st, len(st.reqs), 0, b.secs(closedShare/closedRuns), "c", nil, nil)
		if err != nil {
			return err
		}
		setups = append(setups, setup.Seconds())
		closed = append(closed, res)
	}
	if b.spec.Nodes == 1 {
		if err := boot(bootsEach); err != nil {
			return err
		}
	}

	ot := open.tally()
	var m metricSet
	capRPS, capN := capacity(closed...)
	m.add("capacity_rps", "req/s", capRPS, capN)
	m.add("admit_ratio", "fraction", ratio(float64(ot.admitted), float64(ot.admitted+ot.rejected)), ot.admitted+ot.rejected)
	m.add("setup_s", "s", median(setups), len(setups))
	m.add("peak_rss_mb", "MB", float64(peak)/(1<<20), 1)

	var all, ct tally
	fails := open.firstFail
	for _, res := range closed {
		ct.addAll(res.tally())
		fails += res.firstFail
	}
	all.addAll(ot)
	all.addAll(ct)
	m.writeTable(out, fmt.Sprintf("perfbench %s seed %d: %d open requests at %.0f req/s, %d closed-loop requests from %d clients in %d runs, %d failed (error ratio %.4g)",
		b.spec.Name, b.seed, ot.attempted, b.spec.Rate, ct.attempted, b.conns, closedRuns, all.failed, all.errorRatio()))
	if all.failed > 0 {
		fmt.Fprintf(out, "first failure: %s\n", fails)
	}
	return m.writeJSON(out, all.attempted, all.failed)
}

// rssSampler records the process's largest resident set size, sampled
// every few milliseconds, less the generator's
// off-heap stream and outcome arrays (offHeapBytes). The generator's
// HTTP client and goroutines are on the shared heap and stay in. (The
// kernel's own high-water mark would include building the stream.)
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
	peak int64
}

func startRSS() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			r.peak = max(r.peak, rss()-offHeapBytes.Load())
			select {
			case <-r.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

// end stops the sampler, waits for it and returns the peak in bytes.
// It may be called more than once.
func (r *rssSampler) end() int64 {
	r.once.Do(func() { close(r.stop) })
	<-r.done
	return r.peak
}

// rss is the process's resident set size in bytes (where /proc is
// missing, the Go runtime's mapped memory plus the off-heap mappings).
func rss() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err == nil {
		if f := strings.Fields(string(data)); len(f) >= 2 {
			if pages, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				return pages * int64(os.Getpagesize())
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys) + offHeapBytes.Load()
}

// spanDump is where a traced run leaves its spans.
func (b *bench) spanDump() string {
	if b.outDir == "" {
		return ""
	}
	return filepath.Join(b.outDir, fmt.Sprintf("spans-%s-%d.jsonl", b.spec.Name, b.seed))
}
