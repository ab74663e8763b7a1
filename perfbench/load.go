package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// Request outcomes.
const (
	notSent = iota
	admitted
	rejected
	answered // a query verdict
	failed   // transport error, non-200 (a decision timeout is a 503), or a malformed reply
)

// outcome is what happened to one request. Times are nanoseconds since
// the phase started; due is the open-loop schedule time (0 in a closed
// loop).
type outcome struct {
	due, sent, done int64
	// slept is set when the generator was early and waited for the due
	// time, so sent-due is its own lateness, not backlog.
	slept  bool
	query  bool
	status int
	// bad marks a verdict that breaks the contract: an admit finishing
	// after its deadline, a reject without provenance, a wrong job.
	bad bool
}

// tally is a phase's request accounting.
type tally struct {
	attempted, admitted, rejected, queries, failed, bad int
}

// answered counts the requests that got a verdict.
func (t tally) answered() int { return t.admitted + t.rejected + t.queries }

func (t tally) errorRatio() float64 { return ratio(float64(t.failed), float64(t.attempted)) }

func (t *tally) addAll(o tally) {
	t.attempted += o.attempted
	t.admitted += o.admitted
	t.rejected += o.rejected
	t.queries += o.queries
	t.failed += o.failed
	t.bad += o.bad
}

// phaseResult is one phase's outcomes, indexed like the stream.
type phaseResult struct {
	out     []outcome
	elapsed time.Duration
	// sent counts the requests the workers put on the wire, apart from
	// the outcomes they recorded.
	sent int64
	// samples are the closed loop's answered count and the system's CPU
	// time read every sampleEvery.
	samples []sample
	// err is the first failure of the generator's own requests (clock
	// advances); firstFail the first failed stream request's error.
	err       error
	firstFail string
}

func (p *phaseResult) tally() tally {
	var t tally
	for _, o := range p.out {
		switch o.status {
		case notSent:
			continue
		case admitted:
			t.admitted++
		case rejected:
			t.rejected++
		case answered:
			t.queries++
		case failed:
			t.failed++
		}
		t.attempted++
		if o.bad {
			t.bad++
		}
	}
	return t
}

// sample is how many requests had been answered, and how much CPU time
// the system had spent and had stolen, at one instant of a phase.
type sample struct {
	at       time.Duration
	answered int64
	cpu      cpuStat
}

const sampleEvery = 250 * time.Millisecond

// loadgen sends a stream at a daemon over keep-alive connections, at
// most conns per node, and drives the ledger clock.
type loadgen struct {
	urls   []string
	ids    []string
	conns  int
	client *http.Client
	tp     *http.Transport
	dials  atomic.Int64
	tr     *tracer

	// advMu serializes clock advances; water is the first request not
	// yet finished. clock is the tick the clocks were last moved to.
	advMu sync.Mutex
	water int
	clock atomic.Int64
	// sentAt holds, per worker, the clock its request in flight was sent
	// at (math.MaxInt64 when idle).
	sentAt []atomic.Int64
}

func newLoadgen(d *daemon, conns int, tr *tracer) *loadgen {
	lg := &loadgen{urls: d.urls(), conns: conns, tr: tr}
	for _, n := range d.nodes {
		lg.ids = append(lg.ids, n.id)
	}
	var dialer net.Dialer
	// The idle pool holds every connection the workers use, and the
	// per-host cap makes a worker wait for a returning connection rather
	// than dial a new one, so dials = connections, not requests.
	lg.tp = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			lg.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
		MaxIdleConns:        conns * len(lg.urls),
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	lg.client = &http.Client{Transport: lg.tp, Timeout: 10 * time.Second}
	return lg
}

func (lg *loadgen) close() { lg.tp.CloseIdleConnections() }

// run sends the stream's first n requests from lg.conns workers. With
// gap > 0 it is an open loop: request i is due at i·gap. With gap 0 it
// is a closed loop that starts no request after until. prefix names the
// phase in trace IDs.
func (lg *loadgen) run(st *stream, n int, gap, until time.Duration, prefix string) *phaseResult {
	res := &phaseResult{out: offHeap[outcome](n)}
	finished := offHeap[atomic.Bool](n)
	var next atomic.Int64
	var errMu sync.Mutex
	fail := func(own bool, err error) {
		errMu.Lock()
		defer errMu.Unlock()
		if own && res.err == nil {
			res.err = err
		}
		if !own && res.firstFail == "" {
			res.firstFail = err.Error()
		}
	}
	var answeredN, sent atomic.Int64
	stopSampling, sampled := make(chan struct{}), make(chan struct{})
	lg.sentAt = make([]atomic.Int64, lg.conns)
	for c := range lg.sentAt {
		lg.sentAt[c].Store(math.MaxInt64)
	}
	start := time.Now()
	since := func() int64 { return int64(time.Since(start)) }
	go func() {
		defer close(sampled)
		if gap > 0 {
			return
		}
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			res.samples = append(res.samples, sample{time.Since(start), answeredN.Load(), readCPUStat()})
			select {
			case <-stopSampling:
				return
			case <-tick.C:
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < lg.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				o := &res.out[i]
				if gap > 0 {
					o.due = int64(i) * int64(gap)
					if d := o.due - since(); d > 0 {
						time.Sleep(time.Duration(d))
						o.slept = true
					}
				} else if time.Since(start) >= until {
					return
				}
				r := &st.reqs[i]
				lg.sentAt[c].Store(lg.clock.Load())
				sent.Add(1)
				o.sent = since()
				if err := lg.send(st, r, tracePrefix+prefix+strconv.Itoa(i), o); err != nil {
					fail(false, err)
				}
				o.done = since()
				if o.status != failed {
					answeredN.Add(1)
				}
				finished[i].Store(true)
				lg.sentAt[c].Store(math.MaxInt64)
				if err := lg.advance(st, finished, i); err != nil {
					fail(true, err)
				}
			}
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.sent = sent.Load()
	close(stopSampling)
	<-sampled
	return res
}

// send issues one stream request and records its outcome.
func (lg *loadgen) send(st *stream, r *request, trace string, o *outcome) error {
	o.query = r.query
	o.status = failed
	path := string(st.bytes(r.path))
	method, body := http.MethodGet, io.Reader(nil)
	if !r.query {
		method, body = http.MethodPost, bytes.NewReader(st.bytes(r.body))
	}
	req, err := http.NewRequest(method, lg.urls[r.node]+path, body)
	if err != nil {
		return err
	}
	req.Header.Set(obs.HeaderTraceID, trace)
	if !r.query {
		req.Header.Set("Content-Type", "application/json")
	}
	var start int64
	if lg.tr != nil {
		start = lg.tr.now()
	}
	data, status, err := lg.do(req)
	if lg.tr != nil {
		lg.tr.add(spanRec{Trace: trace, Layer: layerClient, Node: lg.ids[r.node], Start: start, End: lg.tr.now()})
	}
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: %d %s", method, path, status, bytes.TrimSpace(data))
	}
	if r.query {
		var q server.QueryResponse
		if err := json.Unmarshal(data, &q); err != nil || q.Query == "" {
			return fmt.Errorf("query %s: malformed reply %q", path, data)
		}
		o.status = answered
		return nil
	}
	var a server.AdmitResponse
	name := st.bytes(r.name)
	if err := json.Unmarshal(data, &a); err != nil {
		return fmt.Errorf("admit %s: malformed reply %q", name, data)
	}
	if a.Admit {
		o.status = admitted
		o.bad = a.Job != string(name) || a.Deadline != r.deadline || a.Finish > a.Deadline
	} else {
		o.status = rejected
		o.bad = a.Job != string(name) || a.Provenance == nil
	}
	return nil
}

// do runs a request and reads the whole reply, so the connection goes
// back to the pool.
func (lg *loadgen) do(req *http.Request) ([]byte, int, error) {
	resp, err := lg.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return data, resp.StatusCode, err
}

func (lg *loadgen) post(node int, path string, body []byte) error {
	req, err := http.NewRequest(http.MethodPost, lg.urls[node]+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	data, status, err := lg.do(req)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("POST %s: %d %s", path, status, bytes.TrimSpace(data))
	}
	return nil
}

// leaseSlack bounds how far the clock may move while a request is in
// flight: just under rotad's default two-phase lease TTL (50 ticks),
// which a coordinator stamps from the clock it saw when the request
// arrived. The generator compresses time, so without the bound a
// coordination stalled for a few milliseconds could see its prepare
// lease expire, which real time would not do.
const leaseSlack = 45

// advance moves every node's ledger clock after request i when i is an
// advance point: to the arrival tick of the request lag before it, or
// before the oldest request not yet finished, so the clock never passes
// a job whose admit is still in flight, and never more than
// leaseSlack past the clock any request in flight was sent at.
func (lg *loadgen) advance(st *stream, finished []atomic.Bool, i int) error {
	if i%advanceEvery != 0 {
		return nil
	}
	lg.advMu.Lock()
	defer lg.advMu.Unlock()
	for lg.water < len(finished) && finished[lg.water].Load() {
		lg.water++
	}
	limit := int64(math.MaxInt64 - leaseSlack)
	for c := range lg.sentAt {
		limit = min(limit, lg.sentAt[c].Load())
	}
	t := min(i, lg.water) - st.lag
	for t >= 0 && int64(st.reqs[t].arrival) > limit+leaseSlack {
		t--
	}
	if t < 0 || int64(st.reqs[t].arrival) <= lg.clock.Load() {
		return nil
	}
	for node := range lg.urls {
		if err := lg.post(node, "/v1/advance", st.bytes(st.reqs[t].advance)); err != nil {
			return err
		}
	}
	lg.clock.Store(int64(st.reqs[t].arrival))
	return nil
}
