package main

import (
	"math/rand"
	"testing"
)

func TestSummarizeSmallSamplesReportNoTail(t *testing.T) {
	for n := 0; n < minTailSamples; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		s := summarize(xs)
		if s.N != n || s.TailP != 0 || s.Tail != 0 {
			t.Fatalf("n=%d: got %+v, want a median-only summary", n, s)
		}
		if n > 0 && s.Median != float64(n+1)/2 {
			t.Fatalf("n=%d: median %v, want %v", n, s.Median, float64(n+1)/2)
		}
	}
}

func TestSummarizeTailHasTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantP float64
	}{{40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		s := summarize(xs)
		if s.TailP != tc.wantP {
			t.Fatalf("n=%d: tail percentile %v, want %v", tc.n, s.TailP, tc.wantP)
		}
		beyond := 0
		for _, x := range xs {
			if x > s.Tail {
				beyond++
			}
		}
		if beyond < beyondTail {
			t.Fatalf("n=%d: only %d samples beyond p%v", tc.n, beyond, s.TailP)
		}
	}
}

func TestSummarizeTailNeverBelowMedian(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := minTailSamples + r.Intn(500)
		xs := make([]float64, n)
		for i := range xs {
			switch trial % 3 {
			case 0:
				xs[i] = r.ExpFloat64()
			case 1:
				xs[i] = float64(r.Intn(3)) // heavy ties
			default:
				xs[i] = -r.Float64()
			}
		}
		s := summarize(xs)
		if s.Tail < s.Median {
			t.Fatalf("trial %d (n=%d): tail %v below median %v", trial, n, s.Tail, s.Median)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := percentile(xs, 990); ok {
		t.Fatal("p99 reported from 999 samples")
	}
	if _, ok := percentile(xs[:39], 500); ok {
		t.Fatal("a percentile reported from 39 samples")
	}
	xs = append(xs, 999)
	p99, ok := percentile(xs, 990)
	if !ok || p99 != 989 {
		t.Fatalf("p99 of 0..999 = %v, %v; want 989 with 10 samples beyond", p99, ok)
	}
}

func TestSummarizeLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}
