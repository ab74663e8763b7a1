package schedule

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/interval"
	"repro/internal/resource"
)

// clampedEarliestAllocations is the planner walk as it was before
// Set.EachTermWithin: clamp every type to the window, materialize every
// term, and skip all but lt's. It clips the terms itself rather than
// calling Set.Clamp, whose window lookup EachTermWithin shares.
func clampedEarliestAllocations(theta resource.Set, lt resource.LocatedType, need resource.Quantity, window interval.Interval) ([]resource.Term, interval.Time, error) {
	if need <= 0 {
		return nil, window.Start, nil
	}
	if window.Empty() {
		return nil, 0, ErrInfeasible
	}
	var out []resource.Term
	remaining := need
	for _, term := range theta.Terms() {
		if term.Span = term.Span.Intersect(window); term.Type != lt || term.Span.Empty() {
			continue
		}
		capacity := term.Quantity()
		switch {
		case capacity < resource.Quantity(term.Rate):
			continue
		case remaining > capacity:
			out = append(out, term)
			remaining -= capacity
		default:
			wholeTicks := interval.Time(remaining / resource.Quantity(term.Rate))
			if wholeTicks > 0 {
				span := interval.New(term.Span.Start, term.Span.Start+wholeTicks)
				out = append(out, resource.NewTerm(term.Rate, lt, span))
				remaining -= resource.Quantity(term.Rate) * resource.Quantity(wholeTicks)
			}
			doneAt := term.Span.Start + wholeTicks
			if remaining > 0 {
				span := interval.New(doneAt, doneAt+1)
				out = append(out, resource.NewTerm(resource.Rate(remaining), lt, span))
				doneAt++
				remaining = 0
			}
			return out, doneAt, nil
		}
	}
	return nil, 0, ErrInfeasible
}

// TestPropertyEarliestAllocationsMatchesClampedWalk checks that the
// planner's single-profile walk returns exactly what the clamp-everything
// walk returned — the same terms in the same order, the same completion
// time and the same error — on random multi-type sets, windows and
// needs, and that the exact-fit, partial-tick, gap-in-window and
// infeasible cases all come up.
func TestPropertyEarliestAllocationsMatchesClampedWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	types := []resource.LocatedType{
		resource.CPUAt("l1"), resource.CPUAt("l2"), resource.Link("l1", "l2"),
	}
	seen := map[string]int{}
	for i := 0; i < 3000; i++ {
		var theta resource.Set
		for k := rng.Intn(8); k >= 0; k-- {
			start := interval.Time(rng.Intn(60))
			span := interval.New(start, start+1+interval.Time(rng.Intn(12)))
			theta.Add(resource.NewTerm(resource.Rate(1+rng.Intn(4000)), types[rng.Intn(len(types))], span))
		}
		lt := types[rng.Intn(len(types))]
		start := interval.Time(rng.Intn(70) - 5)
		window := interval.New(start, start+interval.Time(rng.Intn(50)))
		avail := theta.QuantityWithin(lt, window)
		var need resource.Quantity
		switch rng.Intn(4) {
		case 0:
			need = avail
		case 1:
			need = avail + 1 + resource.Quantity(rng.Intn(3000))
		case 2:
			need = 1 + resource.Quantity(rng.Int63n(int64(avail)+1))
		default:
			need = resource.Quantity(rng.Intn(3) - 1)
		}

		got, gotAt, gotErr := earliestAllocations(theta, lt, need, window)
		want, wantAt, wantErr := clampedEarliestAllocations(theta, lt, need, window)
		if !reflect.DeepEqual(got, want) || gotAt != wantAt || !errors.Is(gotErr, wantErr) {
			t.Fatalf("iter %d: earliestAllocations(%v, %v, %d, %v) = (%v, %d, %v), clamped walk (%v, %d, %v)",
				i, theta, lt, need, window, got, gotAt, gotErr, want, wantAt, wantErr)
		}

		switch {
		case need <= 0:
			seen["no need"]++
		case gotErr != nil:
			seen["infeasible"]++
		default:
			if need == avail {
				seen["exact fit"]++
			}
			if last := got[len(got)-1]; last.Rate < theta.RateAt(lt, last.Span.Start) {
				seen["partial tick"]++
			}
			if theta.Support(lt).Clamp(interval.New(window.Start, gotAt)).Pieces() > 1 {
				seen["gap in window"]++
			}
		}
	}
	for _, c := range []string{"no need", "infeasible", "exact fit", "partial tick", "gap in window"} {
		if seen[c] == 0 {
			t.Errorf("case %q never came up: %v", c, seen)
		}
	}
}
