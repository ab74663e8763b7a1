package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Span layers recorded from outside the daemon.
const (
	layerClient  = "client"  // the load generator's round trip
	layerHandler = "handler" // a node's http.Handler (Server / cluster.Node)
	layerRPC     = "rpc"     // one peer RPC attempt through a node's transport
)

// tracePrefix marks the trace IDs the load generator issues; spans of
// any other trace (gossip, set-up probes) are not recorded.
const tracePrefix = "pb-"

// spanRec is one recorded span. Times are nanoseconds since the tracer
// was made, on the monotonic clock.
type spanRec struct {
	Trace string `json:"trace"`
	Layer string `json:"layer"`
	// Node is the node that ran the span: the target for a client span,
	// the caller for an RPC span.
	Node string `json:"node"`
	// Peer is the called node of an RPC span.
	Peer  string `json:"peer,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

func (s spanRec) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing and wraps nothing.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []spanRec
	hosts map[string]string // listen address → node ID
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), hosts: make(map[string]string)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(s spanRec) {
	if t == nil || !strings.HasPrefix(s.Trace, tracePrefix) {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// nameHost maps a node's listen address to its ID, so RPC spans name
// the node they called.
func (t *tracer) nameHost(addr, id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.hosts[addr] = id
	t.mu.Unlock()
}

func (t *tracer) host(addr string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hosts[addr]
}

// take returns the spans recorded so far and forgets them.
func (t *tracer) take() []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// handler wraps a node's handler in a handler span.
func (t *tracer) handler(node string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		h.ServeHTTP(w, r)
		t.add(spanRec{Trace: r.Header.Get(obs.HeaderTraceID), Layer: layerHandler, Node: node, Start: start, End: t.now()})
	})
}

// transport returns the peer transport for a node: nil (rotad's default
// transport) untraced, else the default transport wrapped in RPC spans.
func (t *tracer) transport(node string) http.RoundTripper {
	if t == nil {
		return nil
	}
	return &rpcTransport{t: t, node: node, base: http.DefaultTransport}
}

type rpcTransport struct {
	t    *tracer
	node string
	base http.RoundTripper
}

// RoundTrip records a span from the request until its response body is
// read to the end or closed.
func (rt *rpcTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := spanRec{Trace: req.Header.Get(obs.HeaderTraceID), Layer: layerRPC, Node: rt.node,
		Peer: rt.t.host(req.URL.Host), Start: rt.t.now()}
	resp, err := rt.base.RoundTrip(req)
	if err != nil {
		rec.End = rt.t.now()
		rt.t.add(rec)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: rt.t, rec: rec}
	return resp, nil
}

// spanBody ends its RPC span once, at EOF or Close, whichever is first.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	rec  spanRec
	once sync.Once
}

func (b *spanBody) finish() {
	b.once.Do(func() {
		b.rec.End = b.t.now()
		b.t.add(b.rec)
	})
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

// writeSpans dumps spans as JSON lines.
func writeSpans(path string, spans []spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// tnode is a span in a request's span tree.
type tnode struct {
	spanRec
	children []*tnode
}

// self is the span's duration minus the part of it its children cover.
func (n *tnode) self() int64 {
	kids := make([]spanRec, len(n.children))
	for i, c := range n.children {
		kids[i] = c.spanRec
	}
	return selfTime(n.spanRec, kids)
}

// selfTime is parent's duration minus the union of the children's
// intervals clipped to the parent, so overlapping children are counted
// once.
func selfTime(parent spanRec, children []spanRec) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curS, curE int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curS, curE, open = x[0], x[1], true
		case x[0] <= curE:
			curE = max(curE, x[1])
		default:
			covered += curE - curS
			curS, curE = x[0], x[1]
		}
	}
	if open {
		covered += curE - curS
	}
	return parent.dur() - covered
}

// buildTrees groups spans by trace ID and links each trace's spans into
// a tree rooted at its client span. A handler span's parent is the
// tightest RPC span to its node that contains it, else the client span;
// an RPC span's parent is the tightest handler span on its calling node
// that contains it. Traces without a client span are dropped.
func buildTrees(spans []spanRec) map[string]*tnode {
	byTrace := make(map[string][]*tnode)
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], &tnode{spanRec: s})
	}
	trees := make(map[string]*tnode, len(byTrace))
	for id, nodes := range byTrace {
		var root *tnode
		for _, n := range nodes {
			if n.Layer == layerClient {
				root = n
			}
		}
		if root == nil {
			continue
		}
		for _, n := range nodes {
			var parent *tnode
			switch n.Layer {
			case layerHandler:
				parent = tightest(nodes, n, func(p *tnode) bool { return p.Layer == layerRPC && p.Peer == n.Node })
				if parent == nil {
					parent = root
				}
			case layerRPC:
				parent = tightest(nodes, n, func(p *tnode) bool { return p.Layer == layerHandler && p.Node == n.Node })
			}
			if parent != nil {
				parent.children = append(parent.children, n)
			}
		}
		trees[id] = root
	}
	return trees
}

// tightest returns the shortest span satisfying ok that contains n.
func tightest(nodes []*tnode, n *tnode, ok func(*tnode) bool) *tnode {
	var best *tnode
	for _, p := range nodes {
		if p == n || !ok(p) || p.Start > n.Start || p.End < n.End {
			continue
		}
		if best == nil || p.dur() < best.dur() {
			best = p
		}
	}
	return best
}

// walk visits every node of a tree.
func (n *tnode) walk(fn func(*tnode)) {
	fn(n)
	for _, c := range n.children {
		c.walk(fn)
	}
}
