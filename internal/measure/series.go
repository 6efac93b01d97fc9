package measure

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Point is one aggregated time-series bucket.
type Point struct {
	T    time.Duration // bucket start (virtual time)
	Min  float64
	Mean float64
	Max  float64
	N    uint64
}

// Series captures a time series with optional bucket aggregation. The
// paper's Figure 4 plots hours of one-way delay sampled every 10 ms;
// storing every raw sample of a multi-day trace is wasteful, so Series
// aggregates into fixed buckets (min/mean/max per bucket) — exactly what
// a plot at figure resolution needs, while preserving the extremes that
// make the instability spikes visible.
type Series struct {
	Name   string
	Bucket time.Duration // 0 stores raw samples (bucket of one)

	pts     []Point
	cur     Point
	curOpen bool
}

// NewSeries creates a series with the given aggregation bucket.
func NewSeries(name string, bucket time.Duration) *Series {
	return &Series{Name: name, Bucket: bucket}
}

// Add appends a sample at virtual time t. Samples must arrive in
// nondecreasing time order.
func (s *Series) Add(t time.Duration, v float64) {
	if s.Bucket <= 0 {
		s.pts = append(s.pts, Point{T: t, Min: v, Mean: v, Max: v, N: 1})
		return
	}
	start := t - t%s.Bucket
	if s.curOpen && start > s.cur.T {
		s.flush()
	}
	if !s.curOpen {
		s.cur = Point{T: start, Min: v, Max: v}
		s.curOpen = true
	}
	if v < s.cur.Min {
		s.cur.Min = v
	}
	if v > s.cur.Max {
		s.cur.Max = v
	}
	// Streaming mean within the bucket.
	s.cur.N++
	s.cur.Mean += (v - s.cur.Mean) / float64(s.cur.N)
}

func (s *Series) flush() {
	if s.curOpen {
		s.pts = append(s.pts, s.cur)
		s.curOpen = false
	}
}

// Points returns the aggregated buckets (closing any open bucket).
func (s *Series) Points() []Point {
	s.flush()
	return s.pts
}

// Slice returns the points with bucket start in [from, to).
func (s *Series) Slice(from, to time.Duration) []Point {
	pts := s.Points()
	lo := sort.Search(len(pts), func(i int) bool { return pts[i].T >= from })
	hi := sort.Search(len(pts), func(i int) bool { return pts[i].T >= to })
	return pts[lo:hi]
}

// MaxIn returns the maximum sample value within [from, to), or 0 if the
// window is empty. (Values may be negative: raw one-way delays carry the
// inter-switch clock offset.)
func (s *Series) MaxIn(from, to time.Duration) float64 {
	first := true
	max := 0.0
	for _, p := range s.Slice(from, to) {
		if first || p.Max > max {
			max = p.Max
			first = false
		}
	}
	return max
}

// MeanIn returns the sample-weighted mean within [from, to).
func (s *Series) MeanIn(from, to time.Duration) float64 {
	var sum float64
	var n uint64
	for _, p := range s.Slice(from, to) {
		sum += p.Mean * float64(p.N)
		n += p.N
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MinIn returns the minimum sample value within [from, to), or 0 if the
// window is empty.
func (s *Series) MinIn(from, to time.Duration) float64 {
	first := true
	min := 0.0
	for _, p := range s.Slice(from, to) {
		if first || p.Min < min {
			min = p.Min
			first = false
		}
	}
	return min
}

// WriteCSV emits "t_hours,min,mean,max,n" rows, the format the figure
// scripts consume.
func (s *Series) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# series %s\nt_hours,min,mean,max,n\n", s.Name); err != nil {
		return err
	}
	for _, p := range s.Points() {
		if _, err := fmt.Fprintf(w, "%.6f,%.6g,%.6g,%.6g,%d\n",
			p.T.Hours(), p.Min, p.Mean, p.Max, p.N); err != nil {
			return err
		}
	}
	return nil
}
