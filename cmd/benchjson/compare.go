// The -compare mode: read two BENCH_*.json ledgers (as emitted by the
// default stdin mode) and fail when any benchmark present in both has
// regressed beyond the tolerance. This closes the perf-ledger loop: the
// committed baseline from the previous PR gates the next one in CI.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// delta is one benchmark's old-vs-new comparison.
type delta struct {
	Key     string // pkg + name
	OldNs   float64
	NewNs   float64
	Ratio   float64 // NewNs / OldNs
	Regress bool
}

// parseTolerance accepts "15%" or a bare ratio like "0.15".
func parseTolerance(s string) (float64, error) {
	s = strings.TrimSpace(s)
	pct := strings.HasSuffix(s, "%")
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		return 0, fmt.Errorf("bad tolerance %q: %w", s, err)
	}
	if pct {
		v /= 100
	}
	if v < 0 {
		return 0, fmt.Errorf("tolerance %q is negative", s)
	}
	return v, nil
}

func loadLedger(path string) (map[string]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []Record
	if err := json.NewDecoder(f).Decode(&recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]Record, len(recs))
	for _, r := range recs {
		out[r.Pkg+" "+r.Name] = r
	}
	return out, nil
}

// compare pairs the two ledgers by pkg+name and flags regressions.
// Benchmarks present in only one ledger are reported but never fail the
// gate: new benchmarks appear every PR and old ones get renamed.
func compare(old, new map[string]Record, tolerance float64) (deltas []delta, onlyOld, onlyNew []string) {
	for key, o := range old {
		n, ok := new[key]
		if !ok {
			onlyOld = append(onlyOld, key)
			continue
		}
		d := delta{Key: key}
		d.OldNs, d.NewNs = gateNs(o, n)
		if d.OldNs > 0 {
			d.Ratio = d.NewNs / d.OldNs
			d.Regress = d.Ratio > 1+tolerance
		}
		deltas = append(deltas, d)
	}
	for key := range new {
		if _, ok := old[key]; !ok {
			onlyNew = append(onlyNew, key)
		}
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Ratio > deltas[j].Ratio })
	sort.Strings(onlyOld)
	sort.Strings(onlyNew)
	return deltas, onlyOld, onlyNew
}

// gateNs returns the ns/op the gate compares for one benchmark: the
// median over each ledger's runs. A minimum is set by the single luckiest
// run, so on a shared machine one fast pass in the old ledger fails code
// that did not change; the median moves only when most runs do. Ledgers
// recorded before medians were kept fall back to the minimum.
func gateNs(o, n Record) (oldNs, newNs float64) {
	if o.MedianNsPerOp > 0 && n.MedianNsPerOp > 0 {
		return o.MedianNsPerOp, n.MedianNsPerOp
	}
	return o.NsPerOp, n.NsPerOp
}

// runCompare is the -compare entry point; returns the process exit code.
func runCompare(w io.Writer, oldPath, newPath, tolStr string) int {
	tol, err := parseTolerance(tolStr)
	if err != nil {
		fmt.Fprintln(w, "benchjson:", err)
		return 2
	}
	old, err := loadLedger(oldPath)
	if err != nil {
		fmt.Fprintln(w, "benchjson:", err)
		return 2
	}
	new, err := loadLedger(newPath)
	if err != nil {
		fmt.Fprintln(w, "benchjson:", err)
		return 2
	}
	deltas, onlyOld, onlyNew := compare(old, new, tol)
	regressions := 0
	for _, d := range deltas {
		if d.Regress {
			regressions++
			fmt.Fprintf(w, "REGRESSION %s: %.0f ns/op -> %.0f ns/op (%.1f%%, tolerance %.1f%%)\n",
				d.Key, d.OldNs, d.NewNs, (d.Ratio-1)*100, tol*100)
		}
	}
	for _, key := range onlyOld {
		fmt.Fprintf(w, "note: %s only in %s\n", key, oldPath)
	}
	for _, key := range onlyNew {
		fmt.Fprintf(w, "note: %s only in %s\n", key, newPath)
	}
	fmt.Fprintf(w, "compared %d benchmarks (%s vs %s): %d regressions beyond %.1f%%\n",
		len(deltas), oldPath, newPath, regressions, tol*100)
	if len(deltas) == 0 {
		// Ledgers from machines with different GOMAXPROCS name every
		// benchmark differently (the -N suffix); a gate that matched
		// nothing checked nothing.
		fmt.Fprintln(w, "benchjson: no benchmark is in both ledgers; re-baseline the old one on this machine")
		return 1
	}
	if regressions > 0 {
		return 1
	}
	return 0
}
