package resource

import "repro/internal/interval"

// Patch operations: the allocation-light counterparts of Union, Subtract
// and TrimBefore used on the admission hot path. A "patched" set shares
// the untouched per-type profiles with its source — safe because no
// profile operation (add, subtract, merge, clamp) mutates a segment slice
// it did not just allocate — so patching a cached free view after a
// reservation costs a map copy plus one merge walk per type touched.
//
// The sharing contract: a Set produced by a Patch* method (and the Set it
// was produced from) must be treated as immutable by callers that hold
// both; the in-place mutators (Add, AddSet, Consume, TrimBefore) may only
// be applied to sets the caller exclusively owns.

// AddSet merges other into s in place (Θ ← Θ ∪ other with
// simplification). The receiver must be exclusively owned by the caller;
// other is not mutated or retained.
func (s *Set) AddSet(other Set) {
	if len(other.profiles) == 0 {
		return
	}
	if s.profiles == nil {
		s.profiles = make(map[LocatedType]profile, len(other.profiles))
	}
	for lt, p := range other.profiles {
		s.profiles[lt] = s.profiles[lt].merge(p)
	}
}

// PatchUnion returns Θ ∪ other, sharing every profile of s that other
// does not touch — and s itself when other is empty. Neither input is
// mutated.
func (s Set) PatchUnion(other Set) Set {
	if len(other.profiles) == 0 {
		return s
	}
	return s.Union(other)
}

// PatchSubtract returns Θ ∖ other, sharing every profile of s that other
// does not touch — and s itself when other is empty — or ErrInsufficient
// when the complement is undefined. Neither input is mutated.
func (s Set) PatchSubtract(other Set) (Set, error) {
	if len(other.profiles) == 0 {
		return s, nil
	}
	return s.Subtract(other)
}

// TrimmedBefore returns the availability at or after t as a new set,
// sharing every profile that has nothing to trim. Unlike TrimBefore it
// does not mutate the receiver and does not report the expired portion.
func (s Set) TrimmedBefore(t interval.Time) Set {
	out := Set{}
	for lt, p := range s.profiles {
		if len(p.segs) > 0 && p.segs[0].span.Start >= t {
			// Nothing before t: share the profile as-is.
			if out.profiles == nil {
				out.profiles = make(map[LocatedType]profile, len(s.profiles))
			}
			out.profiles[lt] = p
			continue
		}
		future := p.clamp(interval.New(t, interval.Infinity))
		if !future.empty() {
			if out.profiles == nil {
				out.profiles = make(map[LocatedType]profile, len(s.profiles))
			}
			out.profiles[lt] = future
		}
	}
	return out
}

// EachTypeUntil calls fn for every located type with non-empty
// availability, stopping early when fn returns false. Iteration order is
// unspecified. Allocation-free — the hot-path alternative to Types().
func (s Set) EachTypeUntil(fn func(LocatedType) bool) {
	for lt, p := range s.profiles {
		if p.empty() {
			continue
		}
		if !fn(lt) {
			return
		}
	}
}
