package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"repro/internal/admission"
	"repro/internal/interval"
	"repro/internal/obs/assure"
	"repro/internal/resource"
	"repro/internal/workload"
)

// benchAdmitLedger builds a ledger over nLocs shards, pre-loaded with
// `commits` live commitments whose windows are staggered so the shard
// profiles carry many segments — the loaded-ledger shape the admit hot
// path has to stay fast on.
func benchAdmitLedger(b *testing.B, nLocs, commits int) (*Ledger, []resource.Location) {
	b.Helper()
	locs := make([]resource.Location, nLocs)
	for i := range locs {
		locs[i] = resource.Location(fmt.Sprintf("l%d", i+1))
	}
	// Plenty of headroom: the benchmark measures decide+reserve cost,
	// not rejection churn. The promise ledger stays attached — the
	// numbers the bench gate compares are the shipping configuration.
	l := NewLedger(cpuTheta(512, 1<<20, locs...), 0)
	l.SetAssure(assure.New("bench"))
	policy := &admission.Rota{}
	for k := 0; k < commits; k++ {
		start := interval.Time((k * 8) % 4096)
		job := cpuJob(b, fmt.Sprintf("pre%d", k), locs[k%nLocs], start, start+128)
		if dec, err := l.Admit(policy, job); err != nil || !dec.Admit {
			b.Fatalf("preload %d: %v %+v", k, err, dec)
		}
	}
	return l, locs
}

// benchAdmitLoop drives conc goroutines through admit+release pairs of
// a job footprinting fpLocs shards, b.N admissions total.
func benchAdmitLoop(b *testing.B, l *Ledger, fpLocs []resource.Location, conc int) {
	b.Helper()
	policy := &admission.Rota{}
	jobs := make([]workload.Job, conc)
	for g := range jobs {
		name := fmt.Sprintf("bench-g%d", g)
		if len(fpLocs) == 1 {
			jobs[g] = cpuJob(b, name, fpLocs[0], 0, 1<<20)
		} else {
			jobs[g] = triJob(b, name, fpLocs, 0, 1<<20)
		}
	}
	// Pin the heap at a production-shaped size. The 1000-commitment cell
	// allocates about 118 KB per decision — each admit and release
	// rebuilds the touched shard profiles, O(segments) apiece — against
	// ~1 MB of live data, so at the runtime's small default heap goal the
	// collector runs every few milliseconds and that cell runs ~2.3×
	// slower without the ballast. The numbers would then measure how a
	// few hundred KB of live bookkeeping shifts the GC duty cycle, not
	// what the hot path costs. A real
	// daemon's heap sits far above the floor, where that sensitivity
	// vanishes; the ballast (pointer-free, so marking it is free) puts
	// the benchmark in the same regime. Settle setup garbage before
	// timing so the cells start from the same debt.
	ballast := make([]byte, 64<<20)
	defer runtime.KeepAlive(ballast)
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < conc; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := b.N / conc
			if g < b.N%conc {
				n++
			}
			job := jobs[g]
			for i := 0; i < n; i++ {
				dec, err := l.Admit(policy, job)
				if err != nil {
					b.Errorf("admit: %v", err)
					return
				}
				if dec.Admit {
					if err := l.Release(job.Dist.Name); err != nil {
						b.Errorf("release: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	b.StopTimer()
	if err := l.Audit(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAdmitHot measures the admission decide+reserve loop on the
// optimistic batched path. The mode=hot prefix keeps the cell names of
// earlier perf ledgers, whose mode=locked baseline no longer exists.
func BenchmarkAdmitHot(b *testing.B) {
	type cell struct{ locs, commits, conc int }
	cells := []cell{
		{1, 100, 1}, {1, 100, 8}, {1, 100, 64},
		{3, 100, 1}, {3, 100, 8}, {3, 100, 64},
		{1, 10, 64}, {1, 1000, 64},
	}
	for _, c := range cells {
		name := fmt.Sprintf("mode=hot/locs=%d/commits=%d/conc=%d", c.locs, c.commits, c.conc)
		b.Run(name, func(b *testing.B) {
			l, locs := benchAdmitLedger(b, c.locs, c.commits)
			fp := locs
			if c.locs == 1 {
				fp = locs[:1]
			}
			benchAdmitLoop(b, l, fp, c.conc)
		})
	}
}

// BenchmarkAssureOverhead isolates the promise-ledger cost on the
// admit+release hot loop: identical cells with the assure ledger
// detached (off) and attached (on). The acceptance bar is on within 5%
// of off. Two things keep it there: per admission the ledger does one
// map insert and one histogram observation off the shard locks, and
// open promises are stored as compact inline map values so a loaded
// node's thousand live promises add almost nothing to the GC mark
// cycle (see the comment on assure.Ledger.active).
func BenchmarkAssureOverhead(b *testing.B) {
	type cell struct{ locs, commits, conc int }
	cells := []cell{{1, 100, 1}, {1, 100, 64}, {1, 1000, 64}, {3, 100, 64}}
	for _, mode := range []string{"off", "on"} {
		for _, c := range cells {
			name := fmt.Sprintf("assure=%s/locs=%d/commits=%d/conc=%d", mode, c.locs, c.commits, c.conc)
			b.Run(name, func(b *testing.B) {
				l, locs := benchAdmitLedger(b, c.locs, c.commits)
				if mode == "off" {
					l.SetAssure(nil)
				}
				fp := locs
				if c.locs == 1 {
					fp = locs[:1]
				}
				benchAdmitLoop(b, l, fp, c.conc)
			})
		}
	}
}

// BenchmarkRotaloadSaturation drives the full HTTP stack (rotaload's
// loop against an in-process daemon) at high client concurrency and
// reports the client-observed admit latency tail — the saturation
// p50/p99 rows of the perf ledger.
func BenchmarkRotaloadSaturation(b *testing.B) {
	locs := []resource.Location{"l1", "l2", "l3", "l4"}
	jobs, err := workload.Generate(workload.Config{
		Seed: 42, Locations: locs, NumJobs: 256,
		MeanInterarrival: 4, ActorsMin: 1, ActorsMax: 2,
		StepsMin: 1, StepsMax: 2, EvalWeightMax: 2, SlackFactor: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	var p50, p99 float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv, err := New(Config{Theta: cpuTheta(64, 1<<20, locs...), Workers: 8})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		b.StartTimer()
		report, err := RunLoad(context.Background(), LoadConfig{
			BaseURL:         ts.URL,
			Jobs:            jobs,
			Requests:        512,
			Clients:         64,
			ReleaseAdmitted: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if report.Errors > 0 {
			b.Fatalf("saturation run errored: %+v", report)
		}
		p50, p99 = report.P50US, report.P99US
		if err := srv.ledger.Audit(); err != nil {
			b.Fatal(err)
		}
		ts.Close()
		_ = srv.Shutdown(context.Background())
		b.StartTimer()
	}
	b.ReportMetric(p50, "p50-us")
	b.ReportMetric(p99, "p99-us")
}
