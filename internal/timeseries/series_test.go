package timeseries

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i)
	}
	return v
}

func TestNewPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(t0, 0, nil)
}

func TestCloneIndependent(t *testing.T) {
	s := New(t0, time.Minute, seq(5))
	c := s.Clone()
	c.Values[0] = 99
	if s.Values[0] == 99 {
		t.Fatal("Clone shares storage")
	}
}

func TestResampleMean(t *testing.T) {
	s := New(t0, time.Minute, []float64{1, 3, 5, 7, 9})
	r := s.ResampleInto(&Series{}, 2*time.Minute, AggMean)
	want := []float64{2, 6, 9} // trailing partial window
	if r.Len() != 3 {
		t.Fatalf("Resample len = %d", r.Len())
	}
	for i := range want {
		if r.Values[i] != want[i] {
			t.Fatalf("Resample = %v, want %v", r.Values, want)
		}
	}
	if r.Interval != 2*time.Minute {
		t.Fatalf("Resample interval = %v", r.Interval)
	}
}

func TestResampleModes(t *testing.T) {
	s := New(t0, time.Minute, []float64{1, 4, 2, 8})
	if got := s.ResampleInto(&Series{}, 2*time.Minute, AggMax).Values; got[0] != 4 || got[1] != 8 {
		t.Fatalf("AggMax = %v", got)
	}
	if got := s.ResampleInto(&Series{}, 2*time.Minute, AggMin).Values; got[0] != 1 || got[1] != 2 {
		t.Fatalf("AggMin = %v", got)
	}
	if got := s.ResampleInto(&Series{}, 2*time.Minute, AggSum).Values; got[0] != 5 || got[1] != 10 {
		t.Fatalf("AggSum = %v", got)
	}
	if got := s.ResampleInto(&Series{}, 4*time.Minute, AggP95).Values; len(got) != 1 || got[0] < 7 {
		t.Fatalf("AggP95 = %v", got)
	}
}

func TestResamplePanicsOnNonMultiple(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(t0, time.Minute, seq(4)).ResampleInto(&Series{}, 90*time.Second, AggMean)
}

func TestDailyPeaks(t *testing.T) {
	// 2 days at 1-hour resolution with peaks 23 and 47.
	s := New(t0, time.Hour, seq(48))
	peaks := s.DailyPeaks()
	if len(peaks) != 2 || peaks[0] != 23 || peaks[1] != 47 {
		t.Fatalf("DailyPeaks = %v", peaks)
	}
	if New(t0, time.Hour, nil).DailyPeaks() != nil {
		t.Fatal("empty DailyPeaks")
	}
}

func TestSeasonalMeans(t *testing.T) {
	s := New(t0, time.Hour, []float64{1, 2, 3, 1, 2, 3})
	m := s.SeasonalMeans(3)
	if m[0] != 1 || m[1] != 2 || m[2] != 3 {
		t.Fatalf("SeasonalMeans = %v", m)
	}
}

func TestSeasonalityStrengthOrdering(t *testing.T) {
	// A strongly diurnal signal should score much higher than white noise.
	const period = 24
	n := period * 20
	seasonal := make([]float64, n)
	noisy := make([]float64, n)
	rnd := uint64(12345)
	next := func() float64 {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		return float64(rnd%1000)/1000 - 0.5
	}
	for i := range seasonal {
		seasonal[i] = 10 + 5*math.Sin(2*math.Pi*float64(i)/period) + 0.2*next()
		noisy[i] = 10 + 3*next()
	}
	ss := New(t0, time.Hour, seasonal).SeasonalityStrength(period)
	sn := New(t0, time.Hour, noisy).SeasonalityStrength(period)
	if ss < 0.8 {
		t.Fatalf("seasonal strength = %v, want > 0.8", ss)
	}
	if sn > 0.4 {
		t.Fatalf("noise strength = %v, want < 0.4", sn)
	}
	if ss <= sn {
		t.Fatalf("ordering violated: %v <= %v", ss, sn)
	}
}

func TestSeasonalityStrengthBoundsProperty(t *testing.T) {
	if err := quick.Check(func(raw []float64) bool {
		var v []float64
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			if x > 1e100 {
				x = 1e100
			}
			if x < -1e100 {
				x = -1e100
			}
			v = append(v, x)
		}
		s := New(t0, time.Hour, v)
		st := s.SeasonalityStrength(4)
		return st >= 0 && st <= 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeasonalityStrengthShortSeries(t *testing.T) {
	if got := New(t0, time.Hour, seq(5)).SeasonalityStrength(24); got != 0 {
		t.Fatalf("short series strength = %v", got)
	}
}

func TestMeanMaxCVHelpers(t *testing.T) {
	s := New(t0, time.Minute, []float64{2, 4, 6})
	if s.Mean() != 4 || s.MaxValue() != 6 {
		t.Fatal("Mean/MaxValue wrong")
	}
}
