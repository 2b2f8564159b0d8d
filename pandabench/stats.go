package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/big"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie strictly above a percentile's
// rank before the benchmark reports it: with fewer, the tail value is one
// or two unlucky samples, not a percentile.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of samples by the
// nearest-rank rule, and refuses when fewer than minBeyond samples lie
// beyond the rank. samples is sorted in place.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %.2f of %d samples: undefined", q, n)
	}
	rank := int(math.Ceil(q * float64(n)))
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("percentile %.2f of %d samples: only %d beyond it, need %d", q, n, beyond, minBeyond)
	}
	sort.Float64s(samples)
	return samples[rank-1], nil
}

// median is the 0.5 percentile without the tail-sample rule, for set-up
// repetitions and per-layer figures where a handful of samples is all
// there is. It returns 0 for no samples.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// overBound is Thm 1.7's check as a number: the largest intermediate
// relation an execution built, over 2^width, the size bound its width
// certificate (log₂ units) promises up to polylog factors.
func overBound(maxIntermediate int, width *big.Rat) float64 {
	if width == nil {
		return 0
	}
	w, _ := width.Float64()
	return float64(maxIntermediate) / math.Exp2(w)
}

// Span is one timed call the benchmark made into a layer. Start and End
// are nanoseconds since the run began; Parent is 0 for an op's root span.
// Self is filled in when the spans are written (see selfTimes).
type Span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op_id"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (0 when tracing is off).
func (t *tracer) start(op int64, parent int32, layer, name string) int32 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// finish closes span id and returns its duration.
func (t *tracer) finish(id int32) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End = now
	d := s.dur()
	t.mu.Unlock()
	return time.Duration(d)
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes maps each span id to its self time: its duration minus the
// part of its interval that the union of its children's intervals covers.
// Children that overlap each other, run in parallel, or stick out of the
// parent count once and only inside the parent.
func selfTimes(spans []Span) map[int32]int64 {
	kids := map[int32][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int32]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of [start,end) covered by the union of ivs.
func covered(start, end int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], start), min(iv[1], end)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total int64
	curA, curB := int64(0), int64(-1)
	for _, iv := range clipped {
		if iv[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = iv[0], iv[1]
		} else if iv[1] > curB {
			curB = iv[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// writeSpans writes the environment stamp and then one span per line,
// with its self time.
func writeSpans(w io.Writer, env map[string]any, spans []Span) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"env": env}); err != nil {
		return err
	}
	self := selfTimes(spans)
	for _, s := range spans {
		s.Self = self[s.ID]
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// spanDurations maps each span name to its durations in microseconds.
func spanDurations(spans []Span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.dur())/1e3)
	}
	return out
}
