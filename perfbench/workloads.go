package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"sort"
	"unsafe"

	"repro/internal/compute"
	"repro/internal/interval"
	"repro/internal/resource"
	"repro/internal/workload"
)

// spec is one benchmark workload: the daemon it runs against, the job
// stream it sends, and the fixed open-loop rate.
type spec struct {
	Name string
	// Why is the reason the workload exists (mirrored in BENCHMARK.json).
	Why string
	// Nodes is 1 for a standalone daemon, more for an in-process cluster.
	Nodes int
	// Locations is the number of locations l1..lN in Θ.
	Locations int
	// Gen shapes the jobs (Seed and NumJobs are filled per run).
	Gen workload.Config
	// Lag is how many requests the ledger clock trails the stream by.
	Lag int
	// Rate is the open-loop offered rate in requests per second, fixed
	// once for every commit. The rates sit at a fifth to a tenth of the
	// capacity measured when the benchmark was written: nearer half, the
	// latency on a shared 2-vCPU VM follows the CPU other tenants steal
	// (p50 moved by half between runs of one binary), not the daemon.
	Rate float64
	// MaxRate sizes the stream (see bench.stream); a closed phase that
	// has sent the whole stream ends early.
	MaxRate float64
}

// Every fifth request is a one-shot query instead of an admit, and the
// ledger clock advances after every advanceEvery-th request to the
// arrival tick of the job the workload's Lag requests earlier (see
// loadgen.advance). Both depend on the request index only, so the
// ledger's state is a function of the seed and not of how fast the
// daemon answers.
const (
	queryEvery   = 5
	advanceEvery = 32
)

// Θ is rotad's default: base cpu per location and a full link mesh over
// (0, horizon). Arrivals are at most a tick apart on average, so a
// stream stays inside the horizon up to maxStream requests.
const (
	baseRate  = 4
	linkRate  = 1
	horizon   = interval.Time(100000)
	maxStream = 80000
)

// loadedShape is rotaload's generator shape (1–3 actors, 1–4 steps,
// sends and migrates) with dense arrivals and long deadlines (windows of
// about 60–150 ticks).
var loadedShape = workload.Config{
	MeanInterarrival: 0.8,
	ActorsMin:        1,
	ActorsMax:        3,
	StepsMin:         1,
	StepsMax:         4,
	SendProb:         0.2,
	MigrateProb:      0.05,
	EvalWeightMax:    3,
	SlackFactor:      12,
}

var specs = []spec{
	{
		Name:  "loaded",
		Why:   "dense arrivals with long deadlines keep hundreds of live commitments, so time goes to ledger, admission and resource, with queries contending for the same shards",
		Nodes: 1, Locations: 4,
		Gen:     loadedShape,
		Lag:     512,
		Rate:    600,
		MaxRate: 5000,
	},
	{
		Name:  "federated",
		Why:   "a 3-node cluster with round-robin entry: the only workload that runs forwarding, two-phase coordination and peer RPC",
		Nodes: 3, Locations: 6,
		Gen: loadedShape,
		// A shorter lag than loaded keeps each node's free views small,
		// so the time goes to the cluster path rather than to shipping
		// large views between nodes.
		Lag:     64,
		Rate:    200,
		MaxRate: 3000,
	},
}

func findSpec(name string) (*spec, error) {
	for i := range specs {
		if specs[i].Name == name {
			return &specs[i], nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func (s *spec) locations() []resource.Location {
	locs := make([]resource.Location, s.Locations)
	for i := range locs {
		locs[i] = resource.Location(fmt.Sprintf("l%d", i+1))
	}
	return locs
}

// ref locates a byte string in a stream's arena.
type ref struct{ off, n int32 }

// request is one pre-built request of a stream. It holds no pointers,
// so a stream can live outside the Go heap (see offHeap).
type request struct {
	query bool
	// node is the index of the node the request is sent to.
	node int32
	// path is the request path, body the admit body (empty for a query),
	// text a query's compact form.
	path, body, text ref
	// name and deadline are the job's, checked against the verdict.
	name     ref
	deadline interval.Time
	// arrival is the job's arrival tick and advance the POST /v1/advance
	// body that moves a ledger clock there.
	arrival interval.Time
	advance ref
}

// stream is a workload's requests, marshalled before any timing starts.
// The requests and the bytes they point into live outside the Go heap,
// so the benchmark's own inputs neither ballast nor burden the daemon's
// garbage collector.
type stream struct {
	reqs  []request
	arena []byte
	// lag is the workload's clock lag in requests.
	lag int
}

func (st *stream) bytes(r ref) []byte { return st.arena[r.off : r.off+r.n] }

// size is the stream's footprint in bytes.
func (st *stream) size() int {
	return len(st.arena) + len(st.reqs)*int(unsafe.Sizeof(request{}))
}

// buildStream generates n requests for the workload from the seed.
func buildStream(s *spec, seed int64, n int) (*stream, error) {
	cfg := s.Gen
	cfg.Seed = seed
	cfg.NumJobs = n
	cfg.Locations = s.locations()
	jobs, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	put := func(b []byte) ref {
		r := ref{off: int32(buf.Len()), n: int32(len(b))}
		buf.Write(b)
		return r
	}
	reqs := make([]request, n)
	admitPath := put([]byte("/v1/admit"))
	for i, job := range jobs {
		r := &reqs[i]
		r.node = int32(i % s.Nodes)
		r.name = put([]byte(job.Dist.Name))
		r.deadline = job.Dist.Deadline
		r.arrival = job.Arrival
		r.advance = put([]byte(fmt.Sprintf(`{"now":%d}`, job.Arrival)))
		if i%queryEvery == queryEvery-1 {
			q := streamQuery(i, jobs)
			r.query = true
			r.text = put([]byte(q))
			r.path = put([]byte("/v1/query?q=" + url.QueryEscape(q)))
			continue
		}
		body, err := json.Marshal(job)
		if err != nil {
			return nil, err
		}
		r.path, r.body = admitPath, put(body)
	}
	if buf.Len() > math.MaxInt32 {
		return nil, fmt.Errorf("stream of %d requests needs %d bytes", n, buf.Len())
	}
	st := &stream{reqs: offHeap[request](n), arena: offHeap[byte](buf.Len()), lag: s.Lag}
	copy(st.reqs, reqs)
	copy(st.arena, buf.Bytes())
	return st, nil
}

// streamQuery is request i's one-shot query: alternately whether cpu
// stays free at the footprint of the job it replaces, and whether the
// admit just before it (likely live) is still feasible.
func streamQuery(i int, jobs []workload.Job) string {
	if i%(2*queryEvery) == queryEvery-1 {
		loc := "l1"
		if locs := footprint(jobs[i].Dist); len(locs) > 0 {
			loc = string(locs[0])
		}
		return fmt.Sprintf("holds(%s, cpu>=1, next 50)", loc)
	}
	return fmt.Sprintf("feasible(%s)", jobs[i-1].Dist.Name)
}

// footprint returns the sorted locations a job's demands touch (links
// count at their source, as the ledger shards them).
func footprint(dist compute.Distributed) []resource.Location {
	seen := make(map[resource.Location]bool)
	for _, a := range dist.Actors {
		for _, st := range a.Steps {
			for lt := range st.Amounts {
				seen[lt.Loc] = true
			}
		}
	}
	locs := make([]resource.Location, 0, len(seen))
	for loc := range seen {
		locs = append(locs, loc)
	}
	sort.Slice(locs, func(i, j int) bool { return locs[i] < locs[j] })
	return locs
}
