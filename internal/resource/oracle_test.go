package resource

import (
	"sort"

	"repro/internal/interval"
)

// The sort-sweep algebra that combine replaced, kept as the oracle of
// FuzzProfileAlgebra: every operation concatenates the raw segments and
// re-normalizes them with an event sweep, so it shares no code with the
// merge walk it checks.

// normalizeSegments sorts, splits and merges raw segments (which may
// overlap — overlapping rates add, per the paper's simplification rule)
// into normalized form.
func normalizeSegments(raw []segment) profile {
	// Event sweep: +rate at each segment start, −rate at each end; walk
	// boundaries in order, emitting a segment for every stretch with a
	// positive running rate.
	type event struct {
		t     interval.Time
		delta Rate
	}
	events := make([]event, 0, 2*len(raw))
	for _, s := range raw {
		if !s.span.Empty() && s.rate != 0 {
			events = append(events,
				event{t: s.span.Start, delta: s.rate},
				event{t: s.span.End, delta: -s.rate})
		}
	}
	if len(events) == 0 {
		return profile{}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].t < events[j].t })
	var out []segment
	var running Rate
	prev := events[0].t
	for i := 0; i < len(events); {
		t := events[i].t
		if t > prev && running != 0 {
			if n := len(out); n > 0 && out[n-1].rate == running && out[n-1].span.End == prev {
				out[n-1].span.End = t
			} else {
				out = append(out, segment{span: interval.New(prev, t), rate: running})
			}
		}
		for i < len(events) && events[i].t == t {
			running += events[i].delta
			i++
		}
		prev = t
	}
	return profile{segs: out}
}

// oracleMerge is the point-wise sum of two profiles.
func oracleMerge(p, q profile) profile {
	return normalizeSegments(append(append([]segment(nil), p.segs...), q.segs...))
}

// oracleSubtractSpan removes up to rate over span from every segment,
// clamping each remainder at zero.
func oracleSubtractSpan(p profile, span interval.Interval, rate Rate) profile {
	raw := make([]segment, 0, len(p.segs)+2)
	for _, s := range p.segs {
		ov := s.span.Intersect(span)
		if ov.Empty() {
			raw = append(raw, s)
			continue
		}
		for _, rest := range s.span.Subtract(span) {
			raw = append(raw, segment{span: rest, rate: s.rate})
		}
		if remain := s.rate - rate; remain > 0 {
			raw = append(raw, segment{span: ov, rate: remain})
		}
	}
	return normalizeSegments(raw)
}

// oracleSubtract removes q's segments one span at a time, the way Set
// subtraction used to.
func oracleSubtract(p, q profile) profile {
	for _, s := range q.segs {
		p = oracleSubtractSpan(p, s.span, s.rate)
	}
	return p
}

// oracleClamp intersects every segment with the window.
func oracleClamp(p profile, window interval.Interval) profile {
	var out []segment
	for _, s := range p.segs {
		if ov := s.span.Intersect(window); !ov.Empty() {
			out = append(out, segment{span: ov, rate: s.rate})
		}
	}
	return profile{segs: out}
}

// oracleRateAt scans every segment for the one holding tick t.
func oracleRateAt(p profile, t interval.Time) Rate {
	for _, s := range p.segs {
		if s.span.Contains(t) {
			return s.rate
		}
	}
	return 0
}

// oracleDominates compares the two profiles tick by tick over q's
// support.
func oracleDominates(p, q profile) bool {
	for _, s := range q.segs {
		for t := s.span.Start; t < s.span.End; t++ {
			if oracleRateAt(p, t) < s.rate {
				return false
			}
		}
	}
	return true
}
