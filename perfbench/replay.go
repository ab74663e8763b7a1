package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/query"
	"repro/internal/resource"
	"repro/internal/server"
	"repro/internal/workload"
)

// replayStats holds the direct-call pass's per-call times (ns) and
// sampled sizes.
type replayStats struct {
	decode, freeview, decide, admit, release, advance, parse, eval []float64
	// terms is NumTerms of each admit's footprint free view; commitments
	// the live commitments after each advance.
	terms, commitments []float64
	// admitted names the jobs the replay admitted, in order.
	admitted []string
}

// replay sends the stream, in order and on one goroutine, straight into
// a fresh server's ledger: each admit is decoded, its footprint's free
// view fetched and decided by admission.Decide (pure, no reserve), then
// admitted through the ledger; each query is parsed and evaluated. It
// stops after budget and then releases what the ledger still holds. The
// same correctness checks as the HTTP phases apply.
func replay(s *spec, st *stream, budget time.Duration) (*replayStats, error) {
	srv, err := server.New(serverConfig("", theta(s.locations())))
	if err != nil {
		return nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	l := srv.Ledger()
	policy := &admission.Rota{}
	rs := &replayStats{}
	timed := func(dst *[]float64, fn func() error) error {
		t0 := time.Now()
		err := fn()
		*dst = append(*dst, float64(time.Since(t0)))
		return err
	}
	start := time.Now()
	for i := range st.reqs {
		if time.Since(start) >= budget {
			break
		}
		r := &st.reqs[i]
		if r.query {
			text := string(st.bytes(r.text))
			var c *query.Compiled
			if err := timed(&rs.parse, func() (err error) { c, err = query.ParseText(text); return }); err != nil {
				return nil, fmt.Errorf("replay: query %q: %w", text, err)
			}
			if err := timed(&rs.eval, func() (err error) { _, err = srv.EvalQuery(c); return }); err != nil {
				return nil, fmt.Errorf("replay: query %q: %w", text, err)
			}
		} else if err := replayAdmit(rs, srv, policy, st, r, timed); err != nil {
			return nil, err
		}
		if i%advanceEvery == 0 && i >= st.lag {
			to := st.reqs[i-st.lag].arrival
			if err := timed(&rs.advance, func() error { _, err := l.Advance(to); return err }); err != nil {
				return nil, fmt.Errorf("replay: advance to %d: %w", to, err)
			}
			rs.commitments = append(rs.commitments, float64(l.NumCommitments()))
		}
	}
	if err := releaseLive(rs, l, timed); err != nil {
		return nil, err
	}
	if err := l.Audit(); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if v := srv.Assure().Stats().Violated; v > 0 {
		return nil, fmt.Errorf("replay: %d promises violated", v)
	}
	return rs, nil
}

func replayAdmit(rs *replayStats, srv *server.Server, policy admission.Policy, st *stream, r *request, timed func(*[]float64, func() error) error) error {
	l := srv.Ledger()
	var job workload.Job
	if err := timed(&rs.decode, func() (err error) { job, err = server.DecodeAdmitRequest(st.bytes(r.body)); return }); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	locs := footprint(job.Dist)
	var (
		free resource.Set
		now  interval.Time
	)
	if err := timed(&rs.freeview, func() (err error) { free, now, err = l.FreeView(locs); return }); err != nil {
		return fmt.Errorf("replay: free view for %s: %w", job.Dist.Name, err)
	}
	rs.terms = append(rs.terms, float64(free.NumTerms()))
	view := admission.View{Now: now, Theta: free, State: &core.State{Theta: free, Now: now}}
	_ = timed(&rs.decide, func() error { admission.Decide(policy, view, job.Dist); return nil })
	var dec admission.Decision
	if err := timed(&rs.admit, func() (err error) { dec, err = l.AdmitCtx(context.Background(), policy, job); return }); err != nil {
		return fmt.Errorf("replay: admit %s: %w", job.Dist.Name, err)
	}
	if !dec.Admit {
		return nil
	}
	if dec.Plan == nil || dec.Plan.Finish > job.Dist.Deadline {
		return fmt.Errorf("replay: %s admitted without a plan finishing by its deadline", job.Dist.Name)
	}
	rs.admitted = append(rs.admitted, job.Dist.Name)
	return nil
}

// releaseLive releases, one by one, every admitted job the ledger still
// holds when the replay ends, which empties a loaded ledger from the
// size the stream built it to.
func releaseLive(rs *replayStats, l *server.Ledger, timed func(*[]float64, func() error) error) error {
	for _, name := range rs.admitted {
		if _, ok := l.Commitment(name); !ok {
			continue // its window has passed and the clock trimmed it
		}
		if err := timed(&rs.release, func() error { return l.Release(name) }); err != nil {
			return fmt.Errorf("replay: release %s: %w", name, err)
		}
	}
	return nil
}
