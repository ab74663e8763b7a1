package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro/internal/server
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkQueryParse        	   16950	      3381 ns/op	    2760 B/op	      36 allocs/op
BenchmarkQueryLoadedLedger/holds/commitments=10         	    3332	     18486 ns/op	   26771 B/op	      97 allocs/op
PASS
ok  	repro/internal/server	2.640s
pkg: repro/internal/resource
BenchmarkSetUnion-8   	  500000	      2100.5 ns/op
ok  	repro/internal/resource	1.100s
`

func TestParse(t *testing.T) {
	recs, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("parsed %d records, want 3: %+v", len(recs), recs)
	}
	r := recs[0]
	if r.Pkg != "repro/internal/server" || r.Name != "BenchmarkQueryParse" ||
		r.Iters != 16950 || r.NsPerOp != 3381 || r.BytesPerOp != 2760 || r.AllocsPerOp != 36 {
		t.Errorf("record 0 = %+v", r)
	}
	if r.OpsPerSec < 295000 || r.OpsPerSec > 296000 {
		t.Errorf("ops/sec = %v, want ~295770", r.OpsPerSec)
	}
	sub := recs[1]
	if sub.Name != "BenchmarkQueryLoadedLedger/holds/commitments=10" {
		t.Errorf("sub-benchmark name = %q", sub.Name)
	}
	last := recs[2]
	if last.Pkg != "repro/internal/resource" || last.Name != "BenchmarkSetUnion-8" || last.NsPerOp != 2100.5 {
		t.Errorf("record 2 = %+v", last)
	}
	if last.BytesPerOp != 0 || last.AllocsPerOp != 0 {
		t.Errorf("record without -benchmem should leave mem fields zero: %+v", last)
	}
}

func TestParseCapturesCustomMetrics(t *testing.T) {
	in := "pkg: repro/internal/server\n" +
		"BenchmarkRotaloadSaturation/clients=64-8   3   402000000 ns/op   1250 p50-us   9800 p99-us   412 admitted\n"
	recs, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("parsed %d records, want 1: %+v", len(recs), recs)
	}
	r := recs[0]
	if r.NsPerOp != 402000000 {
		t.Errorf("ns/op = %v", r.NsPerOp)
	}
	if r.Extra["p50-us"] != 1250 || r.Extra["p99-us"] != 9800 || r.Extra["admitted"] != 412 {
		t.Errorf("custom ReportMetric units not captured: %+v", r.Extra)
	}
}

func TestParseKeepsFastestOfRepeatedRuns(t *testing.T) {
	in := "pkg: repro/internal/server\n" +
		"BenchmarkQueryParse-8   10000   3500 ns/op\n" +
		"BenchmarkQueryParse-8   12000   3100 ns/op\n" +
		"BenchmarkQueryParse-8    9000   3900 ns/op\n"
	recs, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("-count=3 runs should collapse to one record: %+v", recs)
	}
	if recs[0].NsPerOp != 3100 || recs[0].Iters != 12000 {
		t.Errorf("kept %+v, want the 3100 ns/op run", recs[0])
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	recs, err := parse(strings.NewReader("FAIL\nBenchmarkBroken\nsomething else\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("noise produced records: %+v", recs)
	}
}

func ledgerFile(t *testing.T, recs []Record) string {
	t.Helper()
	b, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareGate(t *testing.T) {
	old := ledgerFile(t, []Record{
		{Pkg: "repro/internal/server", Name: "BenchmarkA", NsPerOp: 1000},
		{Pkg: "repro/internal/server", Name: "BenchmarkB", NsPerOp: 1000},
		{Pkg: "repro/internal/server", Name: "BenchmarkGone", NsPerOp: 50},
	})
	new := ledgerFile(t, []Record{
		{Pkg: "repro/internal/server", Name: "BenchmarkA", NsPerOp: 1100}, // +10%: within 15%
		{Pkg: "repro/internal/server", Name: "BenchmarkB", NsPerOp: 1200}, // +20%: regression
		{Pkg: "repro/internal/server", Name: "BenchmarkNew", NsPerOp: 50},
	})

	var buf strings.Builder
	if code := runCompare(&buf, old, new, "15%"); code != 1 {
		t.Fatalf("20%% regression with 15%% tolerance: exit %d, want 1\n%s", code, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "REGRESSION repro/internal/server BenchmarkB") {
		t.Errorf("missing regression line for BenchmarkB:\n%s", out)
	}
	if strings.Contains(out, "REGRESSION repro/internal/server BenchmarkA") {
		t.Errorf("BenchmarkA (+10%%) flagged under 15%% tolerance:\n%s", out)
	}
	// Appearing or disappearing benchmarks are notes, not failures.
	if !strings.Contains(out, "BenchmarkGone only in") || !strings.Contains(out, "BenchmarkNew only in") {
		t.Errorf("missing one-sided notes:\n%s", out)
	}

	buf.Reset()
	if code := runCompare(&buf, old, new, "25%"); code != 0 {
		t.Fatalf("20%% regression with 25%% tolerance: exit %d, want 0\n%s", code, buf.String())
	}
	// A bare-ratio tolerance parses too.
	buf.Reset()
	if code := runCompare(&buf, old, new, "0.25"); code != 0 {
		t.Fatalf("bare-ratio tolerance: exit %d, want 0\n%s", code, buf.String())
	}
	// Identical ledgers always pass.
	buf.Reset()
	if code := runCompare(&buf, old, old, "0%"); code != 0 {
		t.Fatalf("self-compare: exit %d, want 0\n%s", code, buf.String())
	}
	// Garbage tolerance and missing files are usage errors, not gates.
	buf.Reset()
	if code := runCompare(&buf, old, new, "lots"); code != 2 {
		t.Fatalf("bad tolerance: exit %d, want 2", code)
	}
	buf.Reset()
	if code := runCompare(&buf, old, filepath.Join(t.TempDir(), "missing.json"), "15%"); code != 2 {
		t.Fatalf("missing ledger: exit %d, want 2", code)
	}
}

// A PR that only adds benchmarks must sail through the gate: the new
// rows are informational (there is no baseline to regress against).
func TestCompareNewOnlyBenchmarksPass(t *testing.T) {
	old := ledgerFile(t, []Record{
		{Pkg: "repro/internal/server", Name: "BenchmarkA", NsPerOp: 1000},
	})
	new := ledgerFile(t, []Record{
		{Pkg: "repro/internal/server", Name: "BenchmarkA", NsPerOp: 1000},
		{Pkg: "repro/internal/server", Name: "BenchmarkAdmitHot/conc=64", NsPerOp: 900},
		{Pkg: "repro/internal/server", Name: "BenchmarkRotaloadSaturation", NsPerOp: 4e8,
			Extra: map[string]float64{"p99-us": 9800}},
	})
	var buf strings.Builder
	if code := runCompare(&buf, old, new, "15%"); code != 0 {
		t.Fatalf("NEW-only benchmarks failed the gate: exit %d, want 0\n%s", code, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "BenchmarkAdmitHot/conc=64 only in") {
		t.Errorf("NEW-only benchmark not noted:\n%s", out)
	}
	if strings.Contains(out, "REGRESSION") {
		t.Errorf("unexpected regression line:\n%s", out)
	}
}

// Ledgers that share no benchmark — as when they come from machines
// with different GOMAXPROCS, whose -N name suffixes differ — fail the
// gate instead of passing it with nothing compared.
func TestCompareDisjointLedgersFail(t *testing.T) {
	old := ledgerFile(t, []Record{
		{Pkg: "repro/internal/server", Name: "BenchmarkA", NsPerOp: 1000},
	})
	new := ledgerFile(t, []Record{
		{Pkg: "repro/internal/server", Name: "BenchmarkA-2", NsPerOp: 1000},
	})
	var buf strings.Builder
	if code := runCompare(&buf, old, new, "15%"); code != 1 {
		t.Fatalf("disjoint ledgers: exit %d, want 1\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "no benchmark is in both ledgers") {
		t.Errorf("missing explanation:\n%s", buf.String())
	}
}

// The gate compares medians, so one outlier pass on the old side does
// not fail unchanged code, while a slowdown of most runs still does.
func TestCompareGatesOnMedian(t *testing.T) {
	ledger := func(runs ...float64) string {
		in := "pkg: repro/internal/interval\n"
		for _, ns := range runs {
			in += fmt.Sprintf("BenchmarkRelationBetween-2   1000000   %g ns/op\n", ns)
		}
		recs, err := parse(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		return ledgerFile(t, recs)
	}
	old := ledger(6.0, 4.8, 6.2, 5.9, 6.1) // one lucky run at 4.8
	same := ledger(6.1, 6.0, 5.9, 6.2, 6.0)
	slower := ledger(7.2, 7.1, 7.3, 5.0, 7.4) // most runs +20%, one lucky
	var buf strings.Builder
	if code := runCompare(&buf, old, same, "15%"); code != 0 {
		t.Fatalf("one lucky old run failed unchanged code: exit %d\n%s", code, buf.String())
	}
	buf.Reset()
	if code := runCompare(&buf, old, slower, "15%"); code != 1 {
		t.Fatalf("most runs 20%% slower passed the gate: exit %d\n%s", code, buf.String())
	}
}
