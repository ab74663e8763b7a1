package resource

import (
	"testing"

	"repro/internal/interval"
)

func FuzzParseTerm(f *testing.F) {
	for _, seed := range []string{
		"5:cpu@l1:(0,3)",
		"2.5:network@l1>l2:(4,12)",
		"1:gpu@node-7:(-2,9)",
		"0:cpu@l1:(0,0)",
		"::",
		"9999999999:cpu@x:(0,1)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 256 {
			return
		}
		term, err := ParseTerm(input)
		if err != nil {
			return
		}
		if term.Null() {
			return // null terms render as "0", which is not term syntax
		}
		// A parsed term must round-trip through Compact exactly.
		back, err := ParseTerm(term.Compact())
		if err != nil {
			t.Fatalf("Compact(%q) = %q does not re-parse: %v", input, term.Compact(), err)
		}
		if back != term {
			t.Fatalf("round trip changed term: %v -> %q -> %v", term, term.Compact(), back)
		}
		// Parsed terms are never negative-rate (the paper forbids it).
		if term.Rate < 0 {
			t.Fatalf("negative rate survived parsing: %v", term)
		}
	})
}

func FuzzParseSet(f *testing.F) {
	for _, seed := range []string{
		"",
		"5:cpu@l1:(0,3)",
		"5:cpu@l1:(0,3),2:network@l1>l2:(1,4)",
		"5:cpu@l1:(0,3),5:cpu@l1:(2,8)",
		",,,",
		"5:cpu@l1:(0,3),(",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 512 {
			return
		}
		s, err := ParseSet(input)
		if err != nil {
			return
		}
		// Round trip: Compact must re-parse to an equal set.
		back, err := ParseSet(s.Compact())
		if err != nil {
			t.Fatalf("Compact of parsed set does not re-parse: %q: %v", s.Compact(), err)
		}
		if !back.Equal(s) {
			t.Fatalf("round trip changed set: %v -> %q -> %v", s, s.Compact(), back)
		}
		// Normalization invariants on every profile.
		terms := s.Terms()
		for i := 1; i < len(terms); i++ {
			if terms[i].Type == terms[i-1].Type {
				prev, cur := terms[i-1], terms[i]
				if cur.Span.Start < prev.Span.End {
					t.Fatalf("overlapping normalized terms: %v then %v", prev, cur)
				}
				if cur.Span.Start == prev.Span.End && cur.Rate == prev.Rate {
					t.Fatalf("unmerged adjacent equal-rate terms: %v then %v", prev, cur)
				}
			}
		}
	})
}

// fuzzProfiles decodes data into two normalized profiles and one extra
// step. Each segment takes three bytes (start, length, rate); starts,
// lengths and rates are kept small so that overlaps, touching segments,
// gaps and equal rates all turn up often. The first byte says how many
// segments go to p; the rest go to q, except the last, which is the
// step.
func fuzzProfiles(data []byte) (p, q profile, step segment) {
	if len(data) == 0 {
		return profile{}, profile{}, segment{}
	}
	split, data := int(data[0]%8), data[1:]
	var rawP, rawQ []segment
	for k := 0; k+3 <= len(data); k += 3 {
		start := interval.Time(data[k] % 48)
		s := segment{
			span: interval.New(start, start+1+interval.Time(data[k+1]%16)),
			rate: FromUnits(1 + int64(data[k+2]%4)),
		}
		switch {
		case k+6 > len(data):
			step = s
		case k/3 < split:
			rawP = append(rawP, s)
		default:
			rawQ = append(rawQ, s)
		}
	}
	return normalizeSegments(rawP), normalizeSegments(rawQ), step
}

// checkNormal fails unless p is in normal form: sorted, disjoint,
// non-empty segments with positive rates, equal adjacent rates merged.
func checkNormal(t *testing.T, what string, p profile) {
	t.Helper()
	for i, s := range p.segs {
		if s.span.Empty() || s.rate <= 0 {
			t.Fatalf("%s: segment %d is null: %+v", what, i, s)
		}
		if i == 0 {
			continue
		}
		prev := p.segs[i-1]
		if s.span.Start < prev.span.End {
			t.Fatalf("%s: segments %d and %d overlap or are unsorted: %+v", what, i-1, i, p.segs)
		}
		if s.span.Start == prev.span.End && s.rate == prev.rate {
			t.Fatalf("%s: equal adjacent segments %d and %d are not merged: %+v", what, i-1, i, p.segs)
		}
	}
}

// FuzzProfileAlgebra checks the one-pass merge walk, dominance and
// clamping against the sort-sweep oracle (oracle_test.go) on random
// normalized profiles.
func FuzzProfileAlgebra(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{1, 0, 4, 0, 2, 4, 1, 9, 2, 2},
		{2, 0, 10, 1, 20, 5, 1, 5, 10, 0, 30, 3, 3},
		{3, 0, 3, 0, 3, 3, 0, 8, 2, 1, 1, 14, 2, 6, 6, 1},
		{0, 5, 5, 3, 7, 1, 2},
		{7, 0, 15, 3, 16, 15, 3, 32, 15, 3, 0, 47, 0, 1, 2, 3},
		{1, 0, 9, 1, 2, 2, 2, 0, 0, 0},          // q inside p's support at a higher rate
		{2, 0, 4, 2, 5, 4, 2, 2, 6, 1, 9, 9, 9}, // q bridges p's gap
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*32 {
			return
		}
		p, q, step := fuzzProfiles(data)
		checkNormal(t, "p", p)
		checkNormal(t, "q", q)

		sum := p.merge(q)
		checkNormal(t, "merge", sum)
		if want := oracleMerge(p, q); !sum.equal(want) {
			t.Fatalf("merge %+v + %+v = %+v, oracle %+v", p.segs, q.segs, sum.segs, want.segs)
		}
		added := p.add(step.span, step.rate)
		checkNormal(t, "add", added)
		if want := oracleMerge(p, profile{segs: []segment{step}}); !added.equal(want) {
			t.Fatalf("add %+v to %+v = %+v, oracle %+v", step, p.segs, added.segs, want.segs)
		}

		if got, want := p.clamp(step.span), oracleClamp(p, step.span); !got.equal(want) {
			t.Fatalf("clamp %+v to %v = %+v, oracle %+v", p.segs, step.span, got.segs, want.segs)
		}

		sat := p.subtractSaturating(q)
		checkNormal(t, "subtractSaturating", sat)
		if want := oracleSubtract(p, q); !sat.equal(want) {
			t.Fatalf("subtractSaturating %+v − %+v = %+v, oracle %+v", p.segs, q.segs, sat.segs, want.segs)
		}

		covered := oracleDominates(p, q)
		if got := p.dominates(q); got != covered {
			t.Fatalf("dominates(%+v, %+v) = %v, oracle %v", p.segs, q.segs, got, covered)
		}
		lt := CPUAt("l1")
		sp, sq := Set{profiles: map[LocatedType]profile{lt: p}}, Set{profiles: map[LocatedType]profile{lt: q}}
		if got := sp.Dominates(sq); got != covered {
			t.Fatalf("Set.Dominates = %v, oracle %v", got, covered)
		}
		if !covered {
			if _, err := sp.Subtract(sq); err != ErrInsufficient {
				t.Fatalf("Subtract of an uncovered set: err %v, want ErrInsufficient", err)
			}
			defer func() {
				if recover() == nil {
					t.Fatalf("subtract of uncovered %+v from %+v did not panic", q.segs, p.segs)
				}
			}()
			p.subtract(q)
			return
		}
		diff := p.subtract(q)
		checkNormal(t, "subtract", diff)
		if want := oracleSubtract(p, q); !diff.equal(want) {
			t.Fatalf("subtract %+v − %+v = %+v, oracle %+v", p.segs, q.segs, diff.segs, want.segs)
		}
		if back := diff.merge(q); !back.equal(p) {
			t.Fatalf("(p − q) + q = %+v, want p = %+v", back.segs, p.segs)
		}
	})
}
