package main

import (
	"math"
	"testing"
	"time"

	"sdds/internal/probe"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helpers must sort
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestQuartiles pins the values Python's statistics.quantiles(xs, n=4)
// gives, which is how run-to-run spread is judged.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{seq(4), 1.25, 3.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{7}, 7, 7},
		{[]float64{5, 1, 9, 3, 7}, 2, 8},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	if got := samplesFor(0.90); got != 100 {
		t.Fatalf("samplesFor(0.90) = %d, want 100", got)
	}
	if _, ok := percentile(seq(99), 0.90); ok {
		t.Error("p90 of 99 samples reported; only 9 lie beyond it")
	}
	v, ok := percentile(seq(100), 0.90)
	if !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	// 0.9·110 rounds up in float64; the rank must still be 99.
	if v, ok := percentile(seq(110), 0.90); !ok || v != 99 {
		t.Errorf("p90 of 1..110 = %v, %v; want 99, true", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	ms := time.Millisecond
	tr := &tracer{spans: []span{
		{name: "root", start: 0, end: 100 * ms, parent: noParent},
		{name: "a", start: 10 * ms, end: 40 * ms, parent: 0},
		{name: "b", start: 30 * ms, end: 50 * ms, parent: 0},  // overlaps a
		{name: "c", start: 90 * ms, end: 120 * ms, parent: 0}, // runs past the root
		{name: "d", start: 15 * ms, end: 20 * ms, parent: 1},
	}}
	self := tr.selfTimes()
	want := []time.Duration{50 * ms, 25 * ms, 20 * ms, 30 * ms, 5 * ms}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%s] = %v, want %v", tr.spans[i].name, self[i], want[i])
		}
	}
}

func TestChromeTraceValidates(t *testing.T) {
	tr := newTracer()
	root := tr.begin(spanRequest, noParent, "k")
	tr.end(tr.begin(spanBuild, root, "k"))
	tr.end(root)
	data, err := tr.chromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	problems, _, err := probe.CheckChromeTrace(data)
	if err != nil || len(problems) > 0 {
		t.Fatalf("trace check: %v %v", err, problems)
	}
}
