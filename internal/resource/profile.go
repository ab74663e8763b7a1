package resource

import "repro/internal/interval"

// segment is one step of a rate step-function: a constant positive rate
// over a non-empty interval.
type segment struct {
	span interval.Interval
	rate Rate
}

// profile is a normalized step function of availability rate over time for
// a single located type: segments are sorted, disjoint, carry positive
// rates, and adjacent segments with equal rates are merged. The zero value
// is the everywhere-zero profile.
//
// Profiles are immutable: no operation writes to a segment slice it did
// not just allocate, so sets may share profiles freely (see patch.go).
type profile struct {
	segs []segment
}

// combine returns the normalized profile of a+b, or of max(a−b, 0) when
// sub is set, for two normalized segment lists, in one forward pass over
// their breakpoints that merges equal adjacent segments as it goes.
// Neither input is mutated. The result starts with room for both
// inputs' segments plus two: enough for taking away one step, or adding
// one over a stretch without gaps, so those changes — the admission hot
// path — allocate once. Other shapes may grow it.
func combine(a, b []segment, sub bool) profile {
	out := make([]segment, 0, len(a)+len(b)+2)
	i, j := 0, 0
	var ha, hb segment // the unconsumed parts of a[i] and b[j]
	if len(a) > 0 {
		ha = a[0]
	}
	if len(b) > 0 {
		hb = b[0]
	}
	for i < len(a) && j < len(b) {
		// The elementary stretch starting at the earlier head runs to the
		// first breakpoint of either list after it.
		var span interval.Interval
		var rate Rate
		switch {
		case ha.span.Start < hb.span.Start:
			span = interval.New(ha.span.Start, min(ha.span.End, hb.span.Start))
			rate = ha.rate
		case hb.span.Start < ha.span.Start:
			span = interval.New(hb.span.Start, min(hb.span.End, ha.span.Start))
			if !sub {
				rate = hb.rate
			}
		default:
			span = interval.New(ha.span.Start, min(ha.span.End, hb.span.End))
			if sub {
				rate = max(ha.rate-hb.rate, 0)
			} else {
				rate = ha.rate + hb.rate
			}
		}
		if rate > 0 {
			out = appendStep(out, segment{span: span, rate: rate})
		}
		// Only a head that started the stretch is consumed by it.
		if ha.span.Start < span.End {
			if ha.span.Start = span.End; ha.span.Empty() {
				if i++; i < len(a) {
					ha = a[i]
				}
			}
		}
		if hb.span.Start < span.End {
			if hb.span.Start = span.End; hb.span.Empty() {
				if j++; j < len(b) {
					hb = b[j]
				}
			}
		}
	}
	// One list is exhausted; the rest of the other passes through (b's
	// rest only for a sum). Only its first segment can merge.
	if i < len(a) {
		out = append(appendStep(out, ha), a[i+1:]...)
	}
	if j < len(b) && !sub {
		out = append(appendStep(out, hb), b[j+1:]...)
	}
	if len(out) == 0 {
		return profile{}
	}
	return profile{segs: out}
}

// appendStep adds a positive, non-empty step, extending the last segment
// instead when the step continues it at the same rate.
func appendStep(out []segment, s segment) []segment {
	if n := len(out); n > 0 && out[n-1].rate == s.rate && out[n-1].span.End == s.span.Start {
		out[n-1].span.End = s.span.End
		return out
	}
	return append(out, s)
}

// firstEndingAfter returns the index of the first segment that ends after
// tick t (len(segs) when none does).
func firstEndingAfter(segs []segment, t interval.Time) int {
	lo, hi := 0, len(segs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if segs[mid].span.End > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// empty reports whether the profile is zero everywhere.
func (p profile) empty() bool {
	return len(p.segs) == 0
}

// rateAt returns the rate available at tick t.
func (p profile) rateAt(t interval.Time) Rate {
	i := firstEndingAfter(p.segs, t)
	if i < len(p.segs) && p.segs[i].span.Contains(t) {
		return p.segs[i].rate
	}
	return 0
}

// add merges another step (span, rate) into the profile, summing rates
// where they overlap. Negative rates are rejected by callers; add itself
// assumes rate > 0.
func (p profile) add(span interval.Interval, rate Rate) profile {
	if span.Empty() || rate == 0 {
		return p
	}
	return p.merge(profile{segs: []segment{{span: span, rate: rate}}})
}

// merge returns the point-wise sum of two profiles (resource-set union
// restricted to one located type).
func (p profile) merge(q profile) profile {
	switch {
	case q.empty():
		return p
	case p.empty():
		return q
	}
	return combine(p.segs, q.segs, false)
}

// quantity integrates the profile over the window.
func (p profile) quantity(window interval.Interval) Quantity {
	var total Quantity
	for _, s := range p.segs[firstEndingAfter(p.segs, window.Start):] {
		if s.span.Start >= window.End {
			break
		}
		ov := s.span.Intersect(window)
		total += Quantity(s.rate) * Quantity(ov.Len())
	}
	return total
}

// minRate returns the minimum rate over every tick of the window; a gap in
// coverage yields zero. An empty window yields zero.
func (p profile) minRate(window interval.Interval) Rate {
	if window.Empty() {
		return 0
	}
	var minSeen Rate
	first := true
	cursor := window.Start
	for _, s := range p.segs[firstEndingAfter(p.segs, window.Start):] {
		if s.span.Start > cursor {
			return 0 // gap inside the window
		}
		if first || s.rate < minSeen {
			minSeen = s.rate
			first = false
		}
		cursor = s.span.End
		if cursor >= window.End {
			return minSeen
		}
	}
	return 0 // window extends past the last segment
}

// coveredFrom reports whether the profile provides at least rate at every
// tick of the non-empty span, looking at segments from index i on. It
// also returns the index of the segment covering the span's last tick,
// where a walk over later, disjoint spans can resume.
func (p profile) coveredFrom(i int, span interval.Interval, rate Rate) (int, bool) {
	i += firstEndingAfter(p.segs[i:], span.Start)
	for cursor := span.Start; ; i++ {
		if i == len(p.segs) || p.segs[i].span.Start > cursor || p.segs[i].rate < rate {
			return i, false
		}
		if cursor = p.segs[i].span.End; cursor >= span.End {
			return i, true
		}
	}
}

// covers reports whether the profile provides at least rate at every tick
// of span.
func (p profile) covers(span interval.Interval, rate Rate) bool {
	if span.Empty() || rate <= 0 {
		return true
	}
	_, ok := p.coveredFrom(0, span, rate)
	return ok
}

// dominates reports whether p ≥ q at every tick, in one forward walk over
// both profiles.
func (p profile) dominates(q profile) bool {
	i := 0
	for _, s := range q.segs {
		var ok bool
		if i, ok = p.coveredFrom(i, s.span, s.rate); !ok {
			return false
		}
	}
	return true
}

// subtract returns p − q. The caller must have verified that p dominates
// q; subtract panics otherwise, because a negative resource term is
// meaningless in the algebra (§III).
func (p profile) subtract(q profile) profile {
	if !p.dominates(q) {
		panic("resource: subtract without coverage (negative resource term)")
	}
	return p.subtractSaturating(q)
}

// subtractSaturating returns max(p − q, 0) at every tick: it removes up
// to q's rate, clamping each remainder at zero rather than requiring
// coverage.
func (p profile) subtractSaturating(q profile) profile {
	if p.empty() || q.empty() {
		return p
	}
	return combine(p.segs, q.segs, true)
}

// within returns the index range [lo, hi) of the segments that overlap
// the window.
func (p profile) within(window interval.Interval) (lo, hi int) {
	if window.Empty() {
		return 0, 0
	}
	lo = firstEndingAfter(p.segs, window.Start)
	hi = lo
	for hi < len(p.segs) && p.segs[hi].span.Start < window.End {
		hi++
	}
	return lo, hi
}

// clamp restricts the profile to a window. A window that already holds
// the whole profile returns the receiver.
func (p profile) clamp(window interval.Interval) profile {
	lo, hi := p.within(window)
	if lo == hi {
		return profile{}
	}
	if lo == 0 && hi == len(p.segs) && window.ContainsInterval(p.hull()) {
		return p
	}
	out := make([]segment, hi-lo)
	copy(out, p.segs[lo:hi])
	out[0].span = out[0].span.Intersect(window)
	out[len(out)-1].span = out[len(out)-1].span.Intersect(window)
	return profile{segs: out}
}

// support returns the set of ticks where the profile is positive.
func (p profile) support() interval.Set {
	ivs := make([]interval.Interval, len(p.segs))
	for i, s := range p.segs {
		ivs[i] = s.span
	}
	return interval.NewSet(ivs...)
}

// hull returns the smallest interval containing all segments.
func (p profile) hull() interval.Interval {
	if len(p.segs) == 0 {
		return interval.Interval{}
	}
	return interval.New(p.segs[0].span.Start, p.segs[len(p.segs)-1].span.End)
}

// equal reports point-wise equality (normalized forms are canonical).
func (p profile) equal(q profile) bool {
	if len(p.segs) != len(q.segs) {
		return false
	}
	for i := range p.segs {
		if p.segs[i] != q.segs[i] {
			return false
		}
	}
	return true
}
