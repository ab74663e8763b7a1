GO ?= go

# Packages whose concurrency matters enough to pay for -race on every run:
# the daemon (sharded ledger + HTTP server, including the regressions
# that a timed-out or cancelled admission holds nothing), the cluster federation layer (two-phase
# coordination + gossip, including the injected-crash and drain
# integration tests), the observability layer (shared Observer +
# per-endpoint stats), the span store (lock-free-looking ring buffer fed
# by every request), the metrics histogram, the core decision path they
# drive, and the self-healing layer (φ-accrual detector fed from every
# gossip receipt, fault-injection transport under concurrent RPCs).
RACE_PKGS = ./internal/server/ ./internal/cluster/ ./internal/membership/ ./internal/query/ ./internal/obs/ ./internal/obs/span/ ./internal/metrics/ ./internal/admission/ ./internal/core/ ./internal/schedule/ ./internal/health/ ./internal/fault/ ./cmd/rotad/

.PHONY: ci fmt vet build test race metrics-lint bench-gate selftest cluster-selftest trace-selftest query-selftest chaos-selftest assure-selftest bench clean

ci: fmt vet build test race metrics-lint bench-gate trace-selftest query-selftest chaos-selftest assure-selftest

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Fails when a stat field surfaced by /v1/stats has no metric tag, when
# a tag names a family the live exposition does not emit, when one
# scrape repeats a sample, or when a span kind or attribute is
# undocumented (see internal/obs/lint_test.go).
metrics-lint:
	$(GO) test -run 'TestMetricsLint' -count=1 ./internal/obs/

# Perf-regression gate: the committed per-PR benchmark ledgers must not
# drift more than the tolerance between consecutive PRs (same-machine
# runs; see EXPERIMENTS.md E15).
bench-gate:
	$(GO) run ./cmd/benchjson -compare BENCH_PR9.json BENCH_PR10.json -tolerance 15%

# End-to-end: daemon + ≥1000 requests through the HTTP API.
selftest:
	$(GO) run ./cmd/rotad -selftest -requests 1000 -clients 8

# End-to-end: 3-node loopback cluster + coordinator-crash injection +
# ≥1000 mixed admits + lease-sweep and per-node audit verification.
cluster-selftest:
	$(GO) run ./cmd/rotad -selftest -cluster 3 -requests 1000 -clients 8 -locations 6

# End-to-end tracing check: a small 3-node cluster run whose span probe
# must reconstruct a connected cross-node span tree, print its critical
# path, and leave every reject carrying decision provenance. The same
# run exercises the cross-node query probes (fan-out equivalence, watch
# flipped by a coordinated admission).
trace-selftest:
	$(GO) run ./cmd/rotad -selftest -cluster 3 -requests 300 -clients 6 -locations 6

# End-to-end query check: the single-daemon selftest's query probe must
# see one-shot GET/POST agreement and /v1/watch verdict flips for a
# reservation landing, its release, a leased hold, and a lease expiring.
query-selftest:
	$(GO) run ./cmd/rotad -selftest -requests 300 -clients 4

# End-to-end self-healing check: a 3-node loopback cluster wired through
# the fault-injection transport runs a seeded kill/partition/heal
# schedule under live load with no operator — every eviction must come
# from the φ-accrual detector + quorum rule, the healed partition must
# fence-and-rejoin on its own, no committed reservation may be lost, and
# every audit must stay clean (EXPERIMENTS.md E16).
chaos-selftest:
	$(GO) run ./cmd/rotad -selftest -chaos -cluster 3 -requests 150 -clients 4 -locations 6

# End-to-end deadline-assurance check: the cluster selftest's assure
# probes must see zero violated promises cluster-wide, promise
# continuity for every pinned seed job across the mid-run failover
# (kept or active on the promoted owner, never orphaned), and the
# /v1/assure fan-out totals agreeing with the per-node ledgers. The
# chaos variant additionally requires ≥1 flight-recorder snapshot whose
# merged spans form a connected cross-node timeline (EXPERIMENTS.md E18);
# it is the chaos-selftest run, taken as a prerequisite so `make ci`
# runs the chaos schedule once.
assure-selftest: chaos-selftest
	$(GO) run ./cmd/rotad -selftest -cluster 3 -requests 400 -clients 4 -locations 6

# Regenerates BENCH_PR10.json at the repo root: every benchmark's
# ops/sec, ns/op and allocs/op, including the loaded-ledger query
# benchmarks (E14), the handoff-under-load benchmark (E15), the admit
# hot-path matrix — now with the promise ledger attached — the assure
# on/off overhead matrix (E18) and the rotaload saturation p50/p99 rows
# (E17). Three runs per benchmark; benchjson keeps each one's fastest
# (noise only slows a run down), so the ledger is stable enough for
# bench-gate. Five runs (up from three): this container's run-to-run
# jitter on a fixed binary exceeds the gate's 15% tolerance at
# min-of-3. When re-baselining the *previous* PR's ledger for a
# comparison, interleave full-suite passes of the two trees (benchjson
# keeps the per-benchmark min of everything on its stdin, so
# concatenated passes compose) — back-to-back suite runs drift enough
# thermally to produce phantom regressions in untouched packages.
bench:
	$(GO) test -bench=. -benchmem -benchtime=200ms -count=5 -run '^$$' ./... | $(GO) run ./cmd/benchjson > BENCH_PR10.json
	@cat BENCH_PR10.json | head -c 400; echo

clean:
	$(GO) clean ./...
