// Package trace is the zero-dependency tracing and metrics layer of the
// serving stack. A per-request Span tree rides the context.Context the query
// path already threads end to end: the server opens the root at admission,
// the shard router hangs one child per targeted shard under a scatter span,
// each warehouse records its access-path decision and read volumes, and the
// mapreduce engine annotates split-level progress — so a finished query
// renders as a structured timing tree attributing wall and simulated time to
// the layer that spent it.
//
// Every Span method is nil-receiver safe: code instruments unconditionally
// (`trace.FromContext(ctx).Child("scatter")`) and pays nothing but a nil
// check when no trace is active on the request.
package trace

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"
)

// maxEvents bounds the point-in-time annotations one span retains: a scan
// over thousands of splits must not turn its trace into a transcript. Past
// the cap events are counted, not stored, and Snapshot reports the drop.
const maxEvents = 32

// Attr is one key/value annotation on a span. Values are stored rendered:
// the tree is an observability artifact, not a typed data channel.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Event is one timestamped annotation (a failover retry, a split
// completion).
type Event struct {
	At  time.Time
	Msg string
}

// Span is one timed node of a request's trace tree. All methods are safe
// for concurrent use and safe on a nil receiver.
type Span struct {
	mu       sync.Mutex
	name     string
	start    time.Time
	end      time.Time // zero while unfinished
	attrs    []Attr
	events   []Event
	dropped  int
	children []*Span
}

// New opens a root span starting now.
func New(name string) *Span { return NewAt(name, time.Now()) }

// NewAt opens a root span with an explicit start time, for callers that
// timestamped the request before deciding to trace it (the server's
// admission clock): the root's wall duration then equals the served wall
// time exactly, not up to the gap between the two clock reads.
func NewAt(name string, start time.Time) *Span {
	return &Span{name: name, start: start}
}

// Child opens a sub-span starting now. A nil receiver returns nil, so call
// sites never guard.
func (s *Span) Child(name string) *Span { return s.ChildAt(name, time.Now()) }

// ChildAt opens a sub-span with an explicit start time (work that began
// before the caller reached its instrumentation point).
func (s *Span) ChildAt(name string, start time.Time) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: start}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Finish marks the span complete. Idempotent: the first call wins.
func (s *Span) Finish() { s.FinishAt(time.Now()) }

// FinishAt is Finish with an explicit end time.
func (s *Span) FinishAt(end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = end
	}
	s.mu.Unlock()
}

// Wall is the span's duration: end minus start once finished, elapsed time
// so far while running. Zero on a nil span.
func (s *Span) Wall() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}

// Set records one key/value annotation, rendering the value to text. A
// repeated key overwrites (the final value of an attribute wins — a span
// sets access_path once at planning and read volumes once at completion).
func (s *Span) Set(key string, value any) {
	if s == nil {
		return
	}
	var text string
	switch v := value.(type) {
	case string:
		text = v
	case int:
		text = strconv.Itoa(v)
	case int64:
		text = strconv.FormatInt(v, 10)
	case float64:
		text = strconv.FormatFloat(v, 'g', -1, 64)
	case bool:
		text = strconv.FormatBool(v)
	case time.Duration:
		text = v.String()
	default:
		text = fmt.Sprintf("%v", value)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = text
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: text})
}

// Eventf records one timestamped annotation. Past maxEvents the event is
// counted but not stored (Snapshot reports how many were dropped), so a
// thousand-split scan stays a bounded trace.
func (s *Span) Eventf(format string, args ...any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.events) >= maxEvents {
		s.dropped++
		return
	}
	s.events = append(s.events, Event{At: time.Now(), Msg: fmt.Sprintf(format, args...)})
}

// SpanSnapshot is a deep, immutable copy of a span subtree, JSON-ready for
// /query?trace=1 responses and the slow-query flight recorder. Offsets are
// milliseconds relative to the snapshot root's start, so the tree reads as
// a timeline.
type SpanSnapshot struct {
	Name          string          `json:"name"`
	StartOffsetMs float64         `json:"start_offset_ms"`
	WallMs        float64         `json:"wall_ms"`
	Attrs         []Attr          `json:"attrs,omitempty"`
	Events        []EventSnapshot `json:"events,omitempty"`
	DroppedEvents int             `json:"dropped_events,omitempty"`
	Children      []SpanSnapshot  `json:"children,omitempty"`
}

// EventSnapshot is one event with its offset from the snapshot root.
type EventSnapshot struct {
	OffsetMs float64 `json:"offset_ms"`
	Msg      string  `json:"msg"`
}

// Snapshot deep-copies the span subtree. Safe to call on a running span
// (unfinished spans report their elapsed time so far) and on nil (zero
// snapshot).
func (s *Span) Snapshot() SpanSnapshot {
	if s == nil {
		return SpanSnapshot{}
	}
	s.mu.Lock()
	base := s.start
	s.mu.Unlock()
	return s.snapshotRel(base)
}

func (s *Span) snapshotRel(base time.Time) SpanSnapshot {
	s.mu.Lock()
	snap := SpanSnapshot{
		Name:          s.name,
		StartOffsetMs: durMs(s.start.Sub(base)),
		Attrs:         append([]Attr(nil), s.attrs...),
		DroppedEvents: s.dropped,
	}
	end := s.end
	if end.IsZero() {
		end = time.Now()
	}
	snap.WallMs = durMs(end.Sub(s.start))
	for _, e := range s.events {
		snap.Events = append(snap.Events, EventSnapshot{OffsetMs: durMs(e.At.Sub(base)), Msg: e.Msg})
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		snap.Children = append(snap.Children, c.snapshotRel(base))
	}
	return snap
}

// Attr returns the named attribute's rendered value ("" when absent).
func (sn SpanSnapshot) Attr(key string) string {
	for _, a := range sn.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Find returns the first span named name in a depth-first walk of the
// subtree (nil when absent).
func (sn *SpanSnapshot) Find(name string) *SpanSnapshot {
	if sn.Name == name {
		return sn
	}
	for i := range sn.Children {
		if f := sn.Children[i].Find(name); f != nil {
			return f
		}
	}
	return nil
}

// Walk visits every span of the subtree depth-first.
func (sn *SpanSnapshot) Walk(fn func(*SpanSnapshot)) {
	fn(sn)
	for i := range sn.Children {
		sn.Children[i].Walk(fn)
	}
}

func durMs(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1e3
}

type ctxKey struct{}

// NewContext returns ctx carrying s. A nil span returns ctx unchanged, so
// untraced requests pay no context allocation.
func NewContext(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span riding ctx, or nil — and nil composes: every
// Span method no-ops on it.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}
