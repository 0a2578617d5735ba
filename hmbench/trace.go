package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one (0 for a root).
// Times are nanoseconds since the recorder's epoch.
type span struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// maxSpans bounds the in-memory span buffer; spans past it are counted
// as dropped rather than kept.
const maxSpans = 400_000

// recorder keeps spans in memory for the traced run. While on is false
// every wrapper passes straight through, so one fleet serves both the
// traced and the untraced half of the overhead comparison.
type recorder struct {
	epoch   time.Time
	on      atomic.Bool
	ids     atomic.Uint64
	dropped atomic.Int64
	mu      sync.Mutex
	spans   []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) newID() uint64 { return r.ids.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	} else {
		r.dropped.Add(1)
	}
	r.mu.Unlock()
}

// take returns the spans recorded so far and clears the buffer.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// writeJSONL writes spans one JSON object per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanRef identifies the span that caused the work in hand. It travels
// in a context inside one process and in the spanHeader across HTTP.
type spanRef struct{ req, id uint64 }

type spanKey struct{}

const spanHeader = "X-Hmbench-Span"

func (s spanRef) header() string { return fmt.Sprintf("%x-%x", s.req, s.id) }

func parseSpanHeader(h string) spanRef {
	var s spanRef
	if h != "" {
		_, _ = fmt.Sscanf(h, "%x-%x", &s.req, &s.id)
	}
	return s
}

// spanHandler records one span named name around every request h
// serves, parented to the span named in the request's spanHeader, and
// hands the new span to h's outbound calls through the context. delay,
// when set, holds nanoseconds busy-waited before h runs: tests inject a
// known slowdown there.
func spanHandler(rec *recorder, name string, delay *atomic.Int64, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if delay != nil {
			if d := time.Duration(delay.Load()); d > 0 {
				spin(d)
			}
		}
		if rec == nil || !rec.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		parent := parseSpanHeader(r.Header.Get(spanHeader))
		me := spanRef{req: parent.req, id: rec.newID()}
		t0 := rec.now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, me)))
		rec.add(span{Name: name, Req: me.req, ID: me.id, Parent: parent.id, Start: t0, End: rec.now()})
	})
}

// spin busy-waits for d; a sleep would overshoot by far more than the
// microsecond-scale delays tests inject.
func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// spanTransport records one span per outbound request, named by name,
// parented to the span found in the request's context, from the call
// until the response body is closed.
type spanTransport struct {
	rec  *recorder
	name func(*http.Request) string
	base http.RoundTripper
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.rec.on.Load() {
		return t.base.RoundTrip(req)
	}
	parent, _ := req.Context().Value(spanKey{}).(spanRef)
	me := spanRef{req: parent.req, id: t.rec.newID()}
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, me.header())
	s := span{Name: t.name(req), Req: me.req, ID: me.id, Parent: parent.id, Start: t.rec.now(), Bytes: req.ContentLength}
	resp, err := t.base.RoundTrip(out)
	if err != nil {
		s.End = t.rec.now()
		t.rec.add(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, rec: t.rec, s: s}
	return resp, nil
}

// spanBody ends its span when the response body is closed.
type spanBody struct {
	io.ReadCloser
	rec  *recorder
	s    span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = b.rec.now()
		b.rec.add(b.s)
	})
	return err
}

// selfTimes returns, per span ID, the span's duration minus the part
// of its interval that its children cover. Overlapping children are
// counted once, and child time outside the parent's interval is not
// subtracted.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		cur := s.Start // end of the covered prefix so far
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}
