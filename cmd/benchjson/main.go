// Command benchjson converts `go test -bench` output on stdin into a
// JSON array on stdout — one record per benchmark with its package,
// iteration count, ns/op, derived ops/sec, the median ns/op over its
// repeated runs, and (under -benchmem) B/op and allocs/op. The Makefile's bench target pipes through it to
// regenerate the BENCH_PR*.json perf ledger at the repo root.
//
// With -compare OLD.json NEW.json it instead gates the two committed
// ledgers against each other: any benchmark present in both whose
// median ns/op grew beyond -tolerance (default 15%) fails the run. `make ci`
// uses this to catch perf regressions between PRs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Record is one benchmark result.
type Record struct {
	Pkg         string  `json:"pkg"`
	Name        string  `json:"name"`
	Iters       int64   `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// MedianNsPerOp is the median ns/op over every run of the benchmark
	// on the input; -compare gates on it (see gateNs).
	MedianNsPerOp float64 `json:"median_ns_per_op,omitempty"`
	// Extra holds custom b.ReportMetric units (e.g. the saturation
	// benchmark's p50-us / p99-us latency rows), keyed by unit. Only
	// ns/op gates -compare; extras are informational.
	Extra map[string]float64 `json:"extra,omitempty"`
}

func main() {
	compareMode := flag.Bool("compare", false, "compare two BENCH_*.json ledgers instead of parsing stdin")
	tolerance := flag.String("tolerance", "15%", "allowed ns/op growth before -compare fails (e.g. 15% or 0.15)")
	flag.Parse()
	if *compareMode {
		// flag.Parse stops at the first positional, so accept
		// "-tolerance 15%" trailing the two ledger paths as well.
		files, tol := []string{}, *tolerance
		args := flag.Args()
		for i := 0; i < len(args); i++ {
			switch {
			case args[i] == "-tolerance" && i+1 < len(args):
				tol = args[i+1]
				i++
			case strings.HasPrefix(args[i], "-tolerance="):
				tol = strings.TrimPrefix(args[i], "-tolerance=")
			default:
				files = append(files, args[i])
			}
		}
		if len(files) != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two ledger files, got", len(files))
			os.Exit(2)
		}
		os.Exit(runCompare(os.Stderr, files[0], files[1], tol))
	}
	recs, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(recs); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parse scans benchmark lines, tracking the current "pkg:" header so
// each record knows which package it came from. Repeated runs of the
// same benchmark (go test -count=N, or concatenated suite passes)
// collapse to the run with the lowest ns/op — scheduler and GC
// interference only ever slow a run down — and record the median ns/op
// of all the runs, which is what -compare gates on.
func parse(r io.Reader) ([]Record, error) {
	recs := []Record{}
	index := map[string]int{} // pkg+name -> position in recs
	runs := [][]float64{}     // every ns/op seen, by position in recs
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // a benchmark name alone on its line, not a result
		}
		rec := Record{Pkg: pkg, Name: fields[0], Iters: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad value %q", line, fields[i])
			}
			switch fields[i+1] {
			case "ns/op":
				rec.NsPerOp = v
				if v > 0 {
					rec.OpsPerSec = 1e9 / v
				}
			case "B/op":
				rec.BytesPerOp = v
			case "allocs/op":
				rec.AllocsPerOp = v
			default:
				// MB/s and custom b.ReportMetric units.
				if rec.Extra == nil {
					rec.Extra = map[string]float64{}
				}
				rec.Extra[fields[i+1]] = v
			}
		}
		if rec.NsPerOp == 0 {
			continue
		}
		key := rec.Pkg + " " + rec.Name
		if at, seen := index[key]; seen {
			runs[at] = append(runs[at], rec.NsPerOp)
			if rec.NsPerOp < recs[at].NsPerOp {
				recs[at] = rec
			}
			continue
		}
		index[key] = len(recs)
		recs = append(recs, rec)
		runs = append(runs, []float64{rec.NsPerOp})
	}
	for i, ns := range runs {
		sort.Float64s(ns)
		recs[i].MedianNsPerOp = (ns[(len(ns)-1)/2] + ns[len(ns)/2]) / 2
	}
	return recs, sc.Err()
}
