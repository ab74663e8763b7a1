package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/interval"
	"repro/internal/obs"
	"repro/internal/obs/assure"
	"repro/internal/obs/flightrec"
	"repro/internal/obs/span"
	"repro/internal/resource"
	"repro/internal/server"
)

// node is one in-process rotad: a standalone server, or a cluster node
// with its embedded server.
type node struct {
	id   string
	url  string
	srv  *server.Server
	nd   *cluster.Node // nil for a standalone daemon
	http *http.Server
}

// daemon is the system under test: one standalone node or a cluster.
type daemon struct {
	nodes []*node
}

func (d *daemon) urls() []string {
	out := make([]string, len(d.nodes))
	for i, n := range d.nodes {
		out[i] = n.url
	}
	return out
}

// theta is rotad's default availability over the given locations.
func theta(locs []resource.Location) resource.Set {
	var th resource.Set
	window := interval.New(0, horizon)
	for _, loc := range locs {
		th.Add(resource.NewTerm(resource.FromUnits(baseRate), resource.CPUAt(loc), window))
	}
	for _, src := range locs {
		for _, dst := range locs {
			if src != dst {
				th.Add(resource.NewTerm(resource.FromUnits(linkRate), resource.Link(src, dst), window))
			}
		}
	}
	return th
}

// serverConfig is rotad's default server wiring: span store, promise
// ledger and flight recorder attached, the event log teed only into the
// flight recorder (the daemon's stderr log is discarded). id is the
// cluster node ID, "" for a standalone daemon, which names its records
// after the binary.
func serverConfig(id string, th resource.Set) server.Config {
	rec := id
	if rec == "" {
		rec = "rotad"
	}
	spans := span.NewStore(span.DefaultCapacity, id)
	fr := flightrec.New(rec, flightrec.DefaultEventCap, flightrec.DefaultSnapshotCap, spans)
	return server.Config{
		Policy:          &admission.Rota{},
		Theta:           th,
		DecisionTimeout: 2 * time.Second,
		Obs:             obs.New(obs.Options{Log: fr.Writer(), Node: id}),
		Spans:           spans,
		Assure:          assure.New(rec),
		FlightRec:       fr,
	}
}

// startDaemon boots the workload's daemon on loopback and returns it
// with its set-up time: from the node constructors until every node
// answers /healthz and, in a cluster, has heard gossip from every peer.
// A non-nil tracer wraps every node handler and peer transport.
func startDaemon(s *spec, tr *tracer) (*daemon, time.Duration, error) {
	// Set-up is timed from a collected heap, as in a freshly started
	// daemon, so that a collection owed for the garbage of the previous
	// boot (a standalone boot allocates about 1 MB) does not land in
	// this one.
	runtime.GC()
	start := time.Now()
	d, err := bootNodes(s, tr)
	if err != nil {
		return nil, 0, err
	}
	if err := d.waitReady(10 * time.Second); err != nil {
		d.shutdown()
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

func bootNodes(s *spec, tr *tracer) (*daemon, error) {
	locs := s.locations()
	th := theta(locs)
	d := &daemon{}
	listeners := make([]net.Listener, s.Nodes)
	var peers []cluster.Peer
	parts := cluster.PartitionLocations(locs, s.Nodes)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, err
		}
		listeners[i] = ln
		id := fmt.Sprintf("n%d", i+1)
		d.nodes = append(d.nodes, &node{id: id, url: "http://" + ln.Addr().String()})
		peers = append(peers, cluster.Peer{ID: id, URL: d.nodes[i].url, Locations: parts[i]})
		tr.nameHost(ln.Addr().String(), id)
	}
	for i, n := range d.nodes {
		var h http.Handler
		if s.Nodes == 1 {
			srv, err := server.New(serverConfig("", th))
			if err != nil {
				listeners[i].Close()
				return nil, err
			}
			n.srv, h = srv, srv
		} else {
			scfg := serverConfig(n.id, th)
			nd, err := cluster.New(cluster.Config{
				Self:      n.id,
				Peers:     peers,
				Server:    scfg,
				Obs:       scfg.Obs,
				Spans:     scfg.Spans,
				Transport: tr.transport(n.id),
			})
			if err != nil {
				for _, l := range listeners[i:] {
					l.Close()
				}
				d.shutdown()
				return nil, err
			}
			n.nd, n.srv, h = nd, nd.Server(), nd
		}
		n.http = &http.Server{Handler: tr.handler(n.id, h)}
		go func(srv *http.Server, ln net.Listener) { _ = srv.Serve(ln) }(n.http, listeners[i])
	}
	return d, nil
}

// waitReady polls /healthz on every node, then (in a cluster) until
// every node has heard gossip from every peer.
func (d *daemon) waitReady(limit time.Duration) error {
	tp := &http.Transport{}
	defer tp.CloseIdleConnections()
	client := &http.Client{Transport: tp, Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for _, n := range d.nodes {
		for {
			resp, err := client.Get(n.url + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s never answered /healthz", n.id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for !d.gossiped() {
		if time.Now().After(deadline) {
			return errors.New("cluster gossip never converged")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

func (d *daemon) gossiped() bool {
	for _, n := range d.nodes {
		if n.nd == nil {
			continue
		}
		for _, p := range n.nd.Stats().Peers {
			if !p.Self && p.LastHeardMS < 0 {
				return false
			}
		}
	}
	return true
}

// shutdown drains every node (in a cluster, gossip stops everywhere
// before any listener goes away, so no peer burns RPC retries on a
// closed one), then closes the listeners and connections.
func (d *daemon) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, n := range d.nodes {
		if n.nd != nil {
			_ = n.nd.Shutdown(ctx)
		} else if n.srv != nil {
			_ = n.srv.Shutdown(ctx)
		}
	}
	for _, n := range d.nodes {
		if n.http != nil {
			_ = n.http.Close()
		}
	}
}

// check is the correctness gate on the daemon's state: every ledger
// audits clean and no promise was violated on any node.
func (d *daemon) check() error {
	var errs []string
	var violated uint64
	for _, n := range d.nodes {
		if err := n.srv.Ledger().Audit(); err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", n.id, err))
		}
		violated += n.srv.Assure().Stats().Violated
	}
	if violated > 0 {
		errs = append(errs, fmt.Sprintf("%d promises violated", violated))
	}
	if len(errs) > 0 {
		return errors.New(strings.Join(errs, "; "))
	}
	return nil
}

// decisions is what a daemon says it decided, summed over its nodes.
type decisions struct {
	admitted, rejected int
	// queries is the one-shot queries answered, -1 in a cluster, where
	// a query that spans owners is evaluated on each of them.
	queries int
}

// decisions sums the verdicts every node gave: a node's own server
// counts the admits it decided, its own or forwarded to it, and a
// cluster node also counts the two-phase admits it coordinated.
func (d *daemon) decisions() decisions {
	var dc decisions
	for _, n := range d.nodes {
		if n.nd != nil {
			st := n.nd.Stats()
			dc.admitted += int(st.Admitted + st.Cluster.CoordAdmitted)
			dc.rejected += int(st.Rejected + st.Cluster.CoordRejected)
			dc.queries = -1
			continue
		}
		st := n.srv.Stats()
		dc.admitted += int(st.Admitted)
		dc.rejected += int(st.Rejected)
		dc.queries += int(st.Query.Queries)
	}
	return dc
}
