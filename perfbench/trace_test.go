package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/resource"
	"repro/internal/server"
)

const ms = int64(time.Millisecond)

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	parent := spanRec{Start: 0, End: 10 * ms}
	children := []spanRec{
		{Start: 1 * ms, End: 4 * ms},
		{Start: 3 * ms, End: 7 * ms}, // overlaps the first: together they cover 6ms
	}
	if got := selfTime(parent, children); got != 4*ms {
		t.Errorf("self time = %v, want 4ms", time.Duration(got))
	}
	// Children sticking out of the parent are clipped to it.
	if got := selfTime(parent, []spanRec{{Start: -2 * ms, End: 2 * ms}, {Start: 9 * ms, End: 12 * ms}}); got != 7*ms {
		t.Errorf("clipped self time = %v, want 7ms", time.Duration(got))
	}
	if got := selfTime(parent, nil); got != 10*ms {
		t.Errorf("childless self time = %v, want 10ms", time.Duration(got))
	}
}

func TestBuildTreesGroupsFederatedSpans(t *testing.T) {
	spans := []spanRec{
		// A two-phase admission entering at n1, which calls n2 and n3 in
		// parallel; n2's handler is reached by the second attempt only.
		{Trace: "pb-o1", Layer: layerClient, Node: "n1", Start: 0, End: 20 * ms},
		{Trace: "pb-o1", Layer: layerHandler, Node: "n1", Start: 1 * ms, End: 19 * ms},
		{Trace: "pb-o1", Layer: layerRPC, Node: "n1", Peer: "n2", Start: 2 * ms, End: 3 * ms},
		{Trace: "pb-o1", Layer: layerRPC, Node: "n1", Peer: "n2", Start: 4 * ms, End: 10 * ms},
		{Trace: "pb-o1", Layer: layerRPC, Node: "n1", Peer: "n3", Start: 5 * ms, End: 12 * ms},
		{Trace: "pb-o1", Layer: layerHandler, Node: "n2", Start: 5 * ms, End: 9 * ms},
		{Trace: "pb-o1", Layer: layerHandler, Node: "n3", Start: 6 * ms, End: 11 * ms},
		// Another request in flight at the same time, forwarded to n3.
		{Trace: "pb-o2", Layer: layerClient, Node: "n2", Start: 3 * ms, End: 9 * ms},
		{Trace: "pb-o2", Layer: layerHandler, Node: "n2", Start: 4 * ms, End: 8 * ms},
		{Trace: "pb-o2", Layer: layerRPC, Node: "n2", Peer: "n3", Start: 5 * ms, End: 7 * ms},
		{Trace: "pb-o2", Layer: layerHandler, Node: "n3", Start: 5 * ms, End: 6 * ms},
		// A trace without a client span (nothing the generator sent).
		{Trace: "pb-x", Layer: layerHandler, Node: "n1", Start: 0, End: ms},
	}
	trees := buildTrees(spans)
	if len(trees) != 2 {
		t.Fatalf("got %d trees, want 2", len(trees))
	}

	root := trees["pb-o1"]
	if len(root.children) != 1 || root.children[0].Node != "n1" {
		t.Fatalf("client span children = %+v, want n1's handler", root.children)
	}
	entry := root.children[0]
	if len(entry.children) != 3 {
		t.Fatalf("entry handler has %d RPC children, want 3", len(entry.children))
	}
	remote := map[string]int{}
	root.walk(func(n *tnode) {
		if n.Layer == layerRPC {
			for _, c := range n.children {
				if c.Layer != layerHandler || c.Node != n.Peer {
					t.Errorf("RPC to %s has child %+v", n.Peer, c.spanRec)
				}
				remote[c.Node]++
			}
		}
	})
	if remote["n2"] != 1 || remote["n3"] != 1 {
		t.Errorf("remote handlers reached = %v, want n2 and n3 once each", remote)
	}
	// The entry handler's self time excludes the union of its RPCs,
	// 2–3ms and 4–12ms: 18ms − 9ms.
	if got := entry.self(); got != 9*ms {
		t.Errorf("entry self = %v, want 9ms", time.Duration(got))
	}
	// The client's self time is the network and net/http share: 20 − 18.
	if got := root.self(); got != 2*ms {
		t.Errorf("client self = %v, want 2ms", time.Duration(got))
	}

	other := trees["pb-o2"]
	var n int
	other.walk(func(*tnode) { n++ })
	if n != 4 {
		t.Errorf("pb-o2 tree has %d spans, want 4 (no spans borrowed from pb-o1)", n)
	}
}

// TestFederatedWrappersShareTraceID boots the federated workload's
// cluster with the tracer's wrappers and sends one admission spanning
// two owners: its client, entry-handler, peer-RPC and remote-handler
// spans must all carry the generator's trace ID and link into one tree.
func TestFederatedWrappersShareTraceID(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a 3-node cluster")
	}
	s, err := findSpec("federated")
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	d, _, err := startDaemon(s, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer d.shutdown()
	owner := make(map[resource.Location]int)
	for i, part := range cluster.PartitionLocations(s.locations(), s.Nodes) {
		for _, loc := range part {
			owner[loc] = i
		}
	}
	st, err := buildStream(s, 3, 200)
	if err != nil {
		t.Fatal(err)
	}
	pick := -1
	for i := range st.reqs {
		if st.reqs[i].query {
			continue
		}
		job, err := server.DecodeAdmitRequest(st.bytes(st.reqs[i].body))
		if err != nil {
			t.Fatal(err)
		}
		nodes := map[int]bool{}
		for _, loc := range footprint(job.Dist) {
			nodes[owner[loc]] = true
		}
		if len(nodes) >= 2 {
			pick = i
			break
		}
	}
	if pick < 0 {
		t.Fatal("no admit in the stream spans two owners")
	}
	lg := newLoadgen(d, 1, tr)
	defer lg.close()
	trace := tracePrefix + "t0"
	var o outcome
	if err := lg.send(st, &st.reqs[pick], trace, &o); err != nil {
		t.Fatal(err)
	}
	if o.status != admitted && o.status != rejected || o.bad {
		t.Fatalf("outcome %+v", o)
	}
	spans := tr.take()
	for _, sp := range spans {
		if !strings.HasPrefix(sp.Trace, tracePrefix) {
			t.Errorf("recorded a span of foreign trace %q", sp.Trace)
		}
	}
	root := buildTrees(spans)[trace]
	if root == nil {
		t.Fatalf("no tree for %s in %+v", trace, spans)
	}
	linked, rpcs, remote := 0, 0, 0
	root.walk(func(n *tnode) {
		linked++
		if n.Layer == layerRPC {
			rpcs++
			for _, c := range n.children {
				if c.Layer == layerHandler && c.Node == n.Peer && c.Node != n.Node {
					remote++
				}
			}
		}
	})
	if linked != len(spans) {
		t.Errorf("%d of %d spans linked into the tree", linked, len(spans))
	}
	if rpcs == 0 || remote == 0 {
		t.Errorf("tree has %d RPC spans reaching %d remote handlers, want both > 0", rpcs, remote)
	}
}
