package resource

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/interval"
)

// ErrInsufficient is returned by Subtract when the subtrahend is not
// dominated by the receiver — the paper defines relative complement only
// when every required term has a dominating available term, because
// negative resource terms are meaningless.
var ErrInsufficient = errors.New("resource: relative complement undefined (insufficient resources)")

// Set is the paper's resource set Θ: a collection of resource terms kept
// in simplified (normalized) form — for each located type, a step function
// of total available rate over time. Simultaneously-available identical
// located types have their rates summed, exactly as §III's simplification
// rule prescribes.
//
// The zero value is the empty set, ready for use. Pure operations (Union,
// Subtract, Clamp, ...) return new sets; mutating operations (Add,
// Consume, TrimBefore) are documented as such.
type Set struct {
	profiles map[LocatedType]profile
}

// NewSet builds a normalized set from terms.
func NewSet(terms ...Term) Set {
	var s Set
	for _, t := range terms {
		s.Add(t)
	}
	return s
}

// Clone returns a copy whose mutators (Add, AddSet, Consume, TrimBefore)
// leave the receiver untouched. Only the map is copied: profiles are
// immutable, and every mutator replaces a type's profile whole.
func (s Set) Clone() Set {
	if len(s.profiles) == 0 {
		return Set{}
	}
	out := Set{profiles: make(map[LocatedType]profile, len(s.profiles))}
	for lt, p := range s.profiles {
		out.profiles[lt] = p
	}
	return out
}

// Add merges a term into the set in place (Θ ∪ {t} with simplification).
// Null terms are ignored.
func (s *Set) Add(t Term) {
	if t.Null() {
		return
	}
	if s.profiles == nil {
		s.profiles = make(map[LocatedType]profile)
	}
	s.profiles[t.Type] = s.profiles[t.Type].add(t.Span, t.Rate)
}

// Union returns Θ1 ∪ Θ2 as a new set.
func (s Set) Union(other Set) Set {
	out := s.Clone()
	for lt, p := range other.profiles {
		if out.profiles == nil {
			out.profiles = make(map[LocatedType]profile)
		}
		out.profiles[lt] = out.profiles[lt].merge(p)
	}
	return out
}

// Empty reports whether the set provides no resource at all.
func (s Set) Empty() bool {
	for _, p := range s.profiles {
		if !p.empty() {
			return false
		}
	}
	return true
}

// Types returns the located types present, in deterministic order.
func (s Set) Types() []LocatedType {
	out := make([]LocatedType, 0, len(s.profiles))
	for lt, p := range s.profiles {
		if !p.empty() {
			out = append(out, lt)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}

// Terms returns the normalized terms of the set in deterministic order:
// by located type, then by interval start.
func (s Set) Terms() []Term {
	var out []Term
	for _, lt := range s.Types() {
		for _, seg := range s.profiles[lt].segs {
			out = append(out, Term{Rate: seg.rate, Type: lt, Span: seg.span})
		}
	}
	return out
}

// NumTerms returns the number of normalized terms.
func (s Set) NumTerms() int {
	n := 0
	for _, p := range s.profiles {
		n += len(p.segs)
	}
	return n
}

// RateAt returns the available rate of lt at tick t.
func (s Set) RateAt(lt LocatedType, t interval.Time) Rate {
	return s.profiles[lt].rateAt(t)
}

// MinRate returns the minimum rate of lt over the window (zero if any
// tick is uncovered).
func (s Set) MinRate(lt LocatedType, window interval.Interval) Rate {
	return s.profiles[lt].minRate(window)
}

// QuantityWithin integrates availability of lt over the window. This is
// the ∪ₛᵈ Θ aggregate used by the paper's satisfy function f.
func (s Set) QuantityWithin(lt LocatedType, window interval.Interval) Quantity {
	return s.profiles[lt].quantity(window)
}

// TotalQuantity integrates availability of every type over the window.
func (s Set) TotalQuantity(window interval.Interval) map[LocatedType]Quantity {
	out := make(map[LocatedType]Quantity, len(s.profiles))
	for lt, p := range s.profiles {
		if q := p.quantity(window); q > 0 {
			out[lt] = q
		}
	}
	return out
}

// Covers reports whether the set provides at least term.Rate of
// term.Type at every tick of term.Span — the set-level generalization of
// term dominance (a single dominating term implies coverage, but coverage
// may also be assembled from simplification of several terms).
func (s Set) Covers(term Term) bool {
	if term.Null() {
		return true
	}
	return s.profiles[term.Type].covers(term.Span, term.Rate)
}

// Dominates reports whether Θ1 \ Θ2 is defined: availability in s meets
// or exceeds other at every tick for every located type.
func (s Set) Dominates(other Set) bool {
	for lt, q := range other.profiles {
		if !s.profiles[lt].dominates(q) {
			return false
		}
	}
	return true
}

// Subtract returns Θ1 \ Θ2 per §III, or ErrInsufficient when the
// complement is undefined.
func (s Set) Subtract(other Set) (Set, error) {
	if !s.Dominates(other) {
		return Set{}, ErrInsufficient
	}
	out := s.Clone()
	for lt, q := range other.profiles {
		out.replace(lt, out.profiles[lt].subtract(q))
	}
	return out, nil
}

// SubtractTerm returns Θ \ {t}.
func (s Set) SubtractTerm(t Term) (Set, error) {
	return s.Subtract(NewSet(t))
}

// SubtractSaturating removes as much of other as is present, clamping at
// zero instead of failing — the removal semantics of a resource that
// reneges on its advertised availability: whatever overlap exists
// disappears, regardless of whether something was counting on it.
func (s Set) SubtractSaturating(other Set) Set {
	out := s.Clone()
	for lt, q := range other.profiles {
		if p, ok := out.profiles[lt]; ok {
			out.replace(lt, p.subtractSaturating(q))
		}
	}
	return out
}

// replace stores p as lt's profile, dropping the type when p is empty.
// The receiver's map must be exclusively owned by the caller.
func (s Set) replace(lt LocatedType, p profile) {
	if p.empty() {
		delete(s.profiles, lt)
	} else {
		s.profiles[lt] = p
	}
}

// Consume removes rate×span of lt from the set in place. It returns
// ErrInsufficient (leaving the set unchanged) when coverage is lacking.
// This is the mutation the transition rules apply each Δt.
func (s *Set) Consume(lt LocatedType, span interval.Interval, rate Rate) error {
	if span.Empty() || rate <= 0 {
		return nil
	}
	p := s.profiles[lt]
	if !p.covers(span, rate) {
		return ErrInsufficient
	}
	s.replace(lt, p.subtract(profile{segs: []segment{{span: span, rate: rate}}}))
	return nil
}

// TrimBefore discards all availability before tick t in place, modeling
// expiration of resources as the clock advances (the paper's resource
// expiration rules). It returns the expired portion as a new set.
func (s *Set) TrimBefore(t interval.Time) Set {
	expired := Set{}
	for lt, p := range s.profiles {
		past := p.clamp(interval.New(interval.NegInfinity, t))
		if !past.empty() {
			if expired.profiles == nil {
				expired.profiles = make(map[LocatedType]profile)
			}
			expired.profiles[lt] = past
		}
		future := p.clamp(interval.New(t, interval.Infinity))
		if future.empty() {
			delete(s.profiles, lt)
		} else {
			s.profiles[lt] = future
		}
	}
	return expired
}

// Clamp returns the subset of availability inside the window.
func (s Set) Clamp(window interval.Interval) Set {
	out := Set{}
	for lt, p := range s.profiles {
		c := p.clamp(window)
		if !c.empty() {
			if out.profiles == nil {
				out.profiles = make(map[LocatedType]profile)
			}
			out.profiles[lt] = c
		}
	}
	return out
}

// EachTermWithin calls fn, in start order, with each normalized term of
// lt clipped to the window, stopping early when fn returns false. It
// yields exactly lt's terms of Clamp(window).Terms(), without clamping
// the other types or allocating.
func (s Set) EachTermWithin(lt LocatedType, window interval.Interval, fn func(Term) bool) {
	p := s.profiles[lt]
	lo, hi := p.within(window)
	for _, seg := range p.segs[lo:hi] {
		if !fn(Term{Rate: seg.rate, Type: lt, Span: seg.span.Intersect(window)}) {
			return
		}
	}
}

// EarliestWindow finds the earliest interval of the given duration,
// within the given bounds, throughout which lt is available at rate or
// better — the query a planner asks when placing a constant-rate
// reservation. It returns ok=false when no such window exists.
func (s Set) EarliestWindow(lt LocatedType, rate Rate, duration interval.Time, within interval.Interval) (interval.Interval, bool) {
	if duration <= 0 || rate <= 0 {
		return interval.New(within.Start, within.Start), !within.Empty()
	}
	var found interval.Interval
	runStart := interval.Time(0)
	runEnd := interval.Time(0)
	inRun := false
	s.EachTermWithin(lt, within, func(t Term) bool {
		if t.Rate < rate {
			inRun = false
			return true
		}
		if inRun && t.Span.Start == runEnd {
			runEnd = t.Span.End
		} else {
			runStart, runEnd = t.Span.Start, t.Span.End
			inRun = true
		}
		if runEnd-runStart >= duration {
			found = interval.New(runStart, runStart+duration)
			return false
		}
		return true
	})
	return found, !found.Empty()
}

// Support returns the ticks during which lt is available at all.
func (s Set) Support(lt LocatedType) interval.Set {
	return s.profiles[lt].support()
}

// Hull returns the smallest interval covering all availability of every
// type.
func (s Set) Hull() interval.Interval {
	var hull interval.Interval
	for _, p := range s.profiles {
		hull = hull.Hull(p.hull())
	}
	return hull
}

// Equal reports point-wise equality of two sets.
func (s Set) Equal(other Set) bool {
	for lt, p := range s.profiles {
		if !p.equal(other.profiles[lt]) {
			return false
		}
	}
	for lt, p := range other.profiles {
		if _, seen := s.profiles[lt]; !seen && !p.empty() {
			return false
		}
	}
	return true
}

// String renders the set as "{[5]⟨cpu,l1⟩(0,3), ...}" in deterministic
// order; the empty set renders as "{}".
func (s Set) String() string {
	terms := s.Terms()
	if len(terms) == 0 {
		return "{}"
	}
	parts := make([]string, len(terms))
	for i, t := range terms {
		parts[i] = t.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Compact renders the set in scenario-file syntax: comma-separated
// compact terms.
func (s Set) Compact() string {
	terms := s.Terms()
	parts := make([]string, len(terms))
	for i, t := range terms {
		parts[i] = t.Compact()
	}
	return strings.Join(parts, ",")
}

// ParseSet parses the comma-separated compact syntax produced by Compact.
// An empty string yields the empty set.
func ParseSet(str string) (Set, error) {
	str = strings.TrimSpace(str)
	if str == "" {
		return Set{}, nil
	}
	var s Set
	for _, field := range splitTopLevel(str) {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		t, err := ParseTerm(field)
		if err != nil {
			return Set{}, fmt.Errorf("resource: parse set: %w", err)
		}
		s.Add(t)
	}
	return s, nil
}

// splitTopLevel splits on commas that are not inside parentheses, so that
// interval notation "(0,3)" survives inside a term.
func splitTopLevel(s string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			if depth > 0 {
				depth--
			}
		case ',':
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}
