// Package schedule implements the constructive decision procedures behind
// the paper's theorems: given available resources Θ and the resource
// requirements of a computation, it searches for the break points
// t1 … t_{m-1} whose existence Theorem 2 quantifies over, and for
// concurrent computations the per-actor consumption schedules whose
// combination Theorem 4's path-composition argument relies on.
//
// The procedures are constructive: success returns a Plan — a concrete
// witness assigning every phase a set of resource-term allocations — that
// can be independently verified against Θ and then executed by the
// simulator. This is what lets experiment E3 validate checker soundness
// against ground truth.
package schedule

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/compute"
	"repro/internal/interval"
	"repro/internal/resource"
)

// ErrInfeasible is returned when no schedule exists (or none was found,
// for the heuristic multi-actor search; see Concurrent).
var ErrInfeasible = errors.New("schedule: infeasible")

// Allocation is one planned consumption: the given actor's phase consumes
// Term.Rate of Term.Type throughout Term.Span.
type Allocation struct {
	Actor compute.ActorName
	Phase int
	Term  resource.Term
}

// Plan is a witness schedule for a computation's requirements.
type Plan struct {
	// Allocs lists every planned consumption, ordered by actor then
	// phase.
	Allocs []Allocation
	// Breaks maps each actor to its phase completion times (the paper's
	// t1 … t_{m-1} plus the final completion time t_m).
	Breaks map[compute.ActorName][]interval.Time
	// Finish is the time by which every actor completes.
	Finish interval.Time
}

// Demand returns the total planned consumption as a resource set. A valid
// plan's demand is dominated by the available resources.
func (p Plan) Demand() resource.Set {
	var s resource.Set
	for _, a := range p.Allocs {
		s.Add(a.Term)
	}
	return s
}

// Empty reports whether the plan consumes nothing.
func (p Plan) Empty() bool {
	return len(p.Allocs) == 0
}

// Single decides Theorems 1 and 2 for one actor: can the sequential
// computation with complex requirement req be completed within its window
// using Θ alone? On success it returns the earliest-finish witness plan.
//
// The procedure is exact for a single actor: each phase greedily consumes
// all remaining availability of its required types as early as possible,
// and since phases are strictly ordered and consumption is not
// rate-capped, finishing each phase earliest can only enlarge the
// feasible region of its successors.
func Single(theta resource.Set, req compute.Complex) (Plan, error) {
	plan := Plan{Breaks: map[compute.ActorName][]interval.Time{}}
	working := theta.Clone()
	if err := scheduleActor(&working, req, &plan); err != nil {
		return Plan{}, err
	}
	for _, breaks := range plan.Breaks {
		if n := len(breaks); n > 0 && breaks[n-1] > plan.Finish {
			plan.Finish = breaks[n-1]
		}
	}
	return plan, nil
}

// config controls the multi-actor search.
type config struct {
	exhaustive      bool
	maxPermutations int
}

// Option configures Concurrent.
type Option func(*config)

// WithExhaustive makes Concurrent try actor orderings until one succeeds
// (bounded by WithMaxPermutations) instead of the single
// largest-demand-first heuristic order. The greedy pass is sound but not
// complete under contention; exhaustive search restores completeness at
// factorial cost.
func WithExhaustive() Option {
	return func(c *config) { c.exhaustive = true }
}

// WithMaxPermutations bounds the orderings the exhaustive search visits.
// The default is 720 (6!).
func WithMaxPermutations(n int) Option {
	return func(c *config) { c.maxPermutations = n }
}

// Concurrent decides accommodation for a multi-actor computation against
// Θ: it schedules actors one at a time — the paper's "try to accommodate
// one more computation at a time" — subtracting each actor's planned
// consumption before scheduling the next.
//
// A returned plan is always a genuine witness (sound). When the default
// greedy ordering fails, callers may retry with WithExhaustive, which
// searches actor orderings; failure of the exhaustive search within its
// permutation budget still returns ErrInfeasible, so an infeasibility
// verdict from this function is definitive only for single-actor inputs
// or an unexhausted permutation budget.
func Concurrent(theta resource.Set, req compute.Concurrent, opts ...Option) (Plan, error) {
	cfg := config{maxPermutations: 720}
	for _, o := range opts {
		o(&cfg)
	}
	actors := make([]compute.Complex, len(req.Actors))
	copy(actors, req.Actors)
	// Heuristic order: largest total demand first, so the bulkiest actor
	// gets first pick of scarce capacity.
	sort.SliceStable(actors, func(i, j int) bool {
		return actors[i].TotalAmounts().Total() > actors[j].TotalAmounts().Total()
	})

	if plan, err := tryOrder(theta, actors); err == nil {
		return plan, nil
	} else if !cfg.exhaustive {
		return Plan{}, err
	}
	var found *Plan
	tried := 0
	permute(actors, func(order []compute.Complex) bool {
		tried++
		if tried > cfg.maxPermutations {
			return false
		}
		if plan, err := tryOrder(theta, order); err == nil {
			found = &plan
			return false
		}
		return true
	})
	if found == nil {
		return Plan{}, fmt.Errorf("%w: no actor ordering of %d tried succeeded", ErrInfeasible, tried)
	}
	return *found, nil
}

// tryOrder schedules the actors in the given order against a working copy
// of Θ.
func tryOrder(theta resource.Set, order []compute.Complex) (Plan, error) {
	plan := Plan{Breaks: map[compute.ActorName][]interval.Time{}}
	working := theta.Clone()
	for _, actor := range order {
		if err := scheduleActor(&working, actor, &plan); err != nil {
			return Plan{}, err
		}
	}
	for _, breaks := range plan.Breaks {
		if n := len(breaks); n > 0 && breaks[n-1] > plan.Finish {
			plan.Finish = breaks[n-1]
		}
	}
	return plan, nil
}

// permute visits permutations of actors until visit returns false.
func permute(actors []compute.Complex, visit func([]compute.Complex) bool) {
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(actors) {
			return visit(actors)
		}
		for i := k; i < len(actors); i++ {
			actors[k], actors[i] = actors[i], actors[k]
			cont := rec(k + 1)
			actors[k], actors[i] = actors[i], actors[k]
			if !cont {
				return false
			}
		}
		return true
	}
	rec(0)
}

// scheduleActor plans one actor's phases against the working set,
// consuming what it allocates. The actor's phases run back to back: phase
// i begins the moment phase i−1 completes.
func scheduleActor(working *resource.Set, req compute.Complex, plan *Plan) error {
	cursor := req.Window.Start
	var breaks []interval.Time
	for phaseIdx, phase := range req.Phases {
		completion := cursor
		// Allocate each required type independently from the cursor; the
		// phase completes when its slowest type is fully delivered.
		for _, lt := range phase.Amounts.Types() {
			need := phase.Amounts[lt]
			allocs, doneAt, err := earliestAllocations(*working, lt, need, interval.New(cursor, req.Window.End))
			if err != nil {
				return fmt.Errorf("%w: actor %s phase %d needs %v of %v in %v",
					ErrInfeasible, req.Actor, phaseIdx, need, lt, interval.New(cursor, req.Window.End))
			}
			for _, term := range allocs {
				if consumeErr := working.Consume(term.Type, term.Span, term.Rate); consumeErr != nil {
					return fmt.Errorf("schedule: internal: allocation exceeds availability: %v", consumeErr)
				}
				plan.Allocs = append(plan.Allocs, Allocation{Actor: req.Actor, Phase: phaseIdx, Term: term})
			}
			if doneAt > completion {
				completion = doneAt
			}
		}
		cursor = completion
		breaks = append(breaks, cursor)
	}
	plan.Breaks[req.Actor] = breaks
	return nil
}

// earliestAllocations greedily accumulates need units of lt starting at
// window.Start, consuming the full available rate of every tick until the
// final tick, which consumes only the remainder. It returns the
// allocation terms and the completion time (the tick after the last
// consumption).
func earliestAllocations(theta resource.Set, lt resource.LocatedType, need resource.Quantity, window interval.Interval) ([]resource.Term, interval.Time, error) {
	if need <= 0 {
		return nil, window.Start, nil
	}
	if window.Empty() {
		return nil, 0, ErrInfeasible
	}
	var out []resource.Term
	remaining := need
	doneAt, done := interval.Time(0), false
	theta.EachTermWithin(lt, window, func(term resource.Term) bool {
		capacity := term.Quantity()
		switch {
		case capacity < resource.Quantity(term.Rate):
			return true // defensive; normalized terms always span ≥ 1 tick
		case remaining > capacity:
			out = append(out, term)
			remaining -= capacity
			return true
		default:
			// Final segment: take whole ticks at full rate, then the
			// remainder in one partial-rate tick.
			wholeTicks := interval.Time(remaining / resource.Quantity(term.Rate))
			if wholeTicks > 0 {
				span := interval.New(term.Span.Start, term.Span.Start+wholeTicks)
				out = append(out, resource.NewTerm(term.Rate, lt, span))
				remaining -= resource.Quantity(term.Rate) * resource.Quantity(wholeTicks)
			}
			doneAt = term.Span.Start + wholeTicks
			if remaining > 0 {
				span := interval.New(doneAt, doneAt+1)
				out = append(out, resource.NewTerm(resource.Rate(remaining), lt, span))
				doneAt++
				remaining = 0
			}
			done = true
			return false
		}
	})
	if !done {
		return nil, 0, ErrInfeasible
	}
	return out, doneAt, nil
}

// Verify independently checks a plan against the resources and the
// requirement it claims to witness. It confirms that (1) Θ dominates the
// plan's total demand, (2) every actor's allocations respect its window
// and phase order, and (3) every phase receives its full required
// amounts. A nil error means the plan is a valid Theorem-2/Theorem-4
// witness.
func Verify(theta resource.Set, req compute.Concurrent, plan Plan) error {
	if !theta.Dominates(plan.Demand()) {
		return errors.New("schedule: plan demand exceeds available resources")
	}
	byActor := make(map[compute.ActorName][]Allocation)
	for _, a := range plan.Allocs {
		byActor[a.Actor] = append(byActor[a.Actor], a)
	}
	for _, actor := range req.Actors {
		breaks := plan.Breaks[actor.Actor]
		if len(actor.Phases) == 0 {
			continue
		}
		if len(breaks) != len(actor.Phases) {
			return fmt.Errorf("schedule: actor %s has %d breaks for %d phases",
				actor.Actor, len(breaks), len(actor.Phases))
		}
		prev := actor.Window.Start
		for i, phase := range actor.Phases {
			end := breaks[i]
			if end < prev || end > actor.Window.End {
				return fmt.Errorf("schedule: actor %s phase %d boundary %d outside (%d,%d)",
					actor.Actor, i, end, prev, actor.Window.End)
			}
			got := make(resource.Amounts)
			for _, a := range byActor[actor.Actor] {
				if a.Phase != i {
					continue
				}
				if !interval.New(prev, end).ContainsInterval(a.Term.Span) {
					return fmt.Errorf("schedule: actor %s phase %d allocation %v escapes subinterval (%d,%d)",
						actor.Actor, i, a.Term, prev, end)
				}
				got.Add(resource.Amount{Qty: a.Term.Quantity(), Type: a.Term.Type})
			}
			for lt, needQ := range phase.Amounts {
				if got[lt] < needQ {
					return fmt.Errorf("schedule: actor %s phase %d got %v of %v, needs %v",
						actor.Actor, i, got[lt], lt, needQ)
				}
			}
			prev = end
		}
	}
	return nil
}
