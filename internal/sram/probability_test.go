package sram

import (
	"testing"
)

func TestUncorrectableBelowSingleProbability(t *testing.T) {
	a := testArray(51)
	for _, v := range []float64{0.75, 0.70, 0.65, 0.60, 0.55} {
		_, pu := a.ErrorProbabilities(0, 0, v)
		pf := a.FlipProbability(0, 0, v)
		if pu < 0 || pu > 1 {
			t.Fatalf("pu %v out of range at %v", pu, v)
		}
		if pu > pf+1e-12 {
			t.Fatalf("pu %v above any-flip probability %v at %v", pu, pf, v)
		}
	}
}

func TestSingleErrorProbabilityDecomposition(t *testing.T) {
	a := testArray(53)
	for _, v := range []float64{0.72, 0.66, 0.60} {
		ps, pu := a.ErrorProbabilities(1, 1, v)
		pf := a.FlipProbability(1, 1, v)
		if diff := ps + pu - pf; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("ps+pu != pf at %v: %v + %v vs %v", v, ps, pu, pf)
		}
		if ps < 0 {
			t.Fatalf("negative single-error probability at %v", v)
		}
	}
}

func TestUncorrectableNegligibleAtOnset(t *testing.T) {
	// At the line's error-onset voltage (weakest cell's Vcrit), single
	// errors flip ~50% of the time while double errors must remain
	// rare — that separation is the speculation safety margin.
	a := testArray(57)
	p := a.LineProfile(0, 0)
	ps, pu := a.ErrorProbabilities(0, 0, p.Vmax())
	if ps < 0.2 {
		t.Fatalf("single-error probability %v at onset, want ~0.5", ps)
	}
	if pu > ps/10 {
		t.Fatalf("uncorrectable probability %v not well below single %v at onset", pu, ps)
	}
}

func TestUncorrectableMonotone(t *testing.T) {
	a := testArray(59)
	prev := 1.1
	for v := 0.40; v <= 0.85; v += 0.005 {
		_, pu := a.ErrorProbabilities(4, 2, v)
		if pu > prev+1e-12 {
			t.Fatalf("uncorrectable probability not monotone at %v", v)
		}
		prev = pu
	}
}
