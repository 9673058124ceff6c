package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of the
// samples: the smallest value with at least p % of the samples at or below
// it. It sorts a copy. No samples give 0.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(samples []float64) float64 { return percentile(samples, 50) }

// highestPercentile is the largest of the candidate percentiles that still
// has at least ten samples beyond it (the guide's rule for a tail that means
// something); 50 when not even the smallest candidate qualifies.
func highestPercentile(n int, candidates ...float64) float64 {
	best := 50.0
	for _, p := range candidates {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank >= 10 && p > best {
			best = p
		}
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// interval is a half-open time range in any one unit.
type interval struct{ start, end float64 }

// selfTime is a span's duration minus the part of it its children cover:
// children are clipped to the parent, and overlapping children (parallel
// shards) count once.
func selfTime(parent interval, children []interval) float64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = math.Max(c.start, parent.start)
		c.end = math.Min(c.end, parent.end)
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered, reach := 0.0, parent.start
	for _, c := range clipped {
		if c.end <= reach {
			continue
		}
		covered += c.end - math.Max(c.start, reach)
		reach = c.end
	}
	return (parent.end - parent.start) - covered
}

// openLoop is the schedule of an open-loop generator: operation i is due at
// start + i*period whether or not earlier operations have finished.
type openLoop struct {
	start  time.Time
	period time.Duration
}

func (o openLoop) due(i int) time.Time { return o.start.Add(time.Duration(i) * o.period) }

// lateness is how long after its due time operation i was actually sent
// (zero when the generator was on time).
func (o openLoop) lateness(i int, sent time.Time) time.Duration {
	if late := sent.Sub(o.due(i)); late > 0 {
		return late
	}
	return 0
}

// latency times operation i from when it was due, so a stall's wait is
// charged to every operation it delayed.
func (o openLoop) latency(i int, done time.Time) time.Duration { return done.Sub(o.due(i)) }
