package measure

import (
	"strings"
	"testing"
	"time"
)

func TestSeriesRaw(t *testing.T) {
	s := NewSeries("raw", 0)
	s.Add(time.Millisecond, 1)
	s.Add(2*time.Millisecond, 2)
	pts := s.Points()
	if len(pts) != 2 || pts[0].Mean != 1 || pts[1].Mean != 2 {
		t.Fatalf("points = %+v", pts)
	}
}

func TestSeriesAggregation(t *testing.T) {
	s := NewSeries("agg", time.Second)
	// Bucket 0: samples 1,2,3; bucket 1: samples 10,20.
	s.Add(100*time.Millisecond, 1)
	s.Add(500*time.Millisecond, 2)
	s.Add(900*time.Millisecond, 3)
	s.Add(1100*time.Millisecond, 10)
	s.Add(1900*time.Millisecond, 20)
	pts := s.Points()
	if len(pts) != 2 {
		t.Fatalf("buckets = %d", len(pts))
	}
	b0 := pts[0]
	if b0.T != 0 || b0.Min != 1 || b0.Max != 3 || b0.N != 3 || b0.Mean != 2 {
		t.Fatalf("bucket0 = %+v", b0)
	}
	b1 := pts[1]
	if b1.T != time.Second || b1.Min != 10 || b1.Max != 20 || b1.Mean != 15 {
		t.Fatalf("bucket1 = %+v", b1)
	}
}

func TestSeriesSkipsEmptyBuckets(t *testing.T) {
	s := NewSeries("gap", time.Second)
	s.Add(0, 1)
	s.Add(10*time.Second, 2) // 9 empty buckets in between
	pts := s.Points()
	if len(pts) != 2 {
		t.Fatalf("buckets = %d (empty buckets must not materialize)", len(pts))
	}
	if pts[1].T != 10*time.Second {
		t.Fatalf("bucket1 start = %v", pts[1].T)
	}
}

func TestSeriesWindowQueries(t *testing.T) {
	s := NewSeries("w", time.Second)
	for i := 0; i < 100; i++ {
		v := 28.0
		if i >= 50 && i < 60 {
			v = 78.0 // spike window
		}
		s.Add(time.Duration(i)*time.Second+time.Millisecond, v)
	}
	if got := s.MaxIn(50*time.Second, 60*time.Second); got != 78 {
		t.Fatalf("MaxIn spike = %v", got)
	}
	if got := s.MaxIn(0, 50*time.Second); got != 28 {
		t.Fatalf("MaxIn quiet = %v", got)
	}
	if got := s.MeanIn(0, 10*time.Second); got != 28 {
		t.Fatalf("MeanIn = %v", got)
	}
	if got := s.MinIn(45*time.Second, 65*time.Second); got != 28 {
		t.Fatalf("MinIn = %v", got)
	}
	if got := s.MinIn(200*time.Second, 300*time.Second); got != 0 {
		t.Fatalf("MinIn empty = %v", got)
	}
	if n := len(s.Slice(10*time.Second, 20*time.Second)); n != 10 {
		t.Fatalf("Slice len = %d", n)
	}
}

func TestSeriesCSV(t *testing.T) {
	s := NewSeries("owd/gtt", time.Second)
	s.Add(0, 28)
	s.Add(time.Second, 29)
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "# series owd/gtt") ||
		!strings.Contains(out, "t_hours,min,mean,max,n") {
		t.Fatalf("csv header missing:\n%s", out)
	}
	if strings.Count(out, "\n") != 4 {
		t.Fatalf("csv rows:\n%s", out)
	}
}

func TestSeriesMeanWeighting(t *testing.T) {
	s := NewSeries("wmean", time.Second)
	// Bucket 0: 10 samples of 1; bucket 1: 1 sample of 100.
	for i := 0; i < 10; i++ {
		s.Add(time.Duration(i)*100*time.Millisecond, 1)
	}
	s.Add(1500*time.Millisecond, 100)
	got := s.MeanIn(0, 2*time.Second)
	want := (10*1.0 + 100.0) / 11.0
	if got != want {
		t.Fatalf("weighted mean = %v, want %v", got, want)
	}
}
