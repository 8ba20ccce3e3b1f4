package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// tracer keeps the traced run's spans in memory and writes them at the
// end as obs JSONL begin/end pairs, the format `fdreport trace` reads.
// Spans are recorded by the benchmark around its calls into each layer;
// a span's identity and parent ride in the event attributes
// ("span=<id> parent=<id>"), and requests share Inst. A nil *tracer is
// the untraced run: every method no-ops.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	next  int64
	// extra holds events recorded by the program's own obs.Recorder
	// (the coordinator's lease spans), re-based onto epoch.
	extra []obs.Event
}

type span struct {
	id, parent int64
	scope      string
	inst       int
	proto      string
	start, end time.Time
	attrs      string
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records one finished span and returns its id (0 when untraced).
func (t *tracer) add(scope string, parent int64, inst int, proto string, start, end time.Time, attrs string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{id: t.next, parent: parent, scope: scope, inst: inst,
		proto: proto, start: start, end: end, attrs: attrs})
	return t.next
}

// reserve hands out an id for a span whose end is not known yet, so its
// children can name it before it is recorded with put.
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) put(id int64, scope string, parent int64, inst int, proto string, start, end time.Time, attrs string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: id, parent: parent, scope: scope, inst: inst,
		proto: proto, start: start, end: end, attrs: attrs})
}

// adopt merges events from a program-side recorder whose epoch was
// recorderEpoch.
func (t *tracer) adopt(events []obs.Event, recorderEpoch time.Time) {
	if t == nil {
		return
	}
	shift := int64(recorderEpoch.Sub(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range events {
		e.TS += shift
		t.extra = append(t.extra, e)
	}
}

// checkNesting verifies every span names an existing parent (or none)
// and lies inside its parent's interval, and that no span ends before it
// starts.
func (t *tracer) checkNesting() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	byID := make(map[int64]*span, len(t.spans))
	for i := range t.spans {
		byID[t.spans[i].id] = &t.spans[i]
	}
	for _, s := range t.spans {
		if s.end.Before(s.start) {
			return fmt.Errorf("span %d (%s) ends before it starts", s.id, s.scope)
		}
		if s.parent == 0 {
			continue
		}
		p, ok := byID[s.parent]
		if !ok {
			return fmt.Errorf("span %d (%s) names missing parent %d", s.id, s.scope, s.parent)
		}
		if s.start.Before(p.start) || s.end.After(p.end) {
			return fmt.Errorf("span %d (%s) [%v, %v] escapes parent %d (%s) [%v, %v]",
				s.id, s.scope, s.start.Sub(t.epoch), s.end.Sub(t.epoch),
				p.id, p.scope, p.start.Sub(t.epoch), p.end.Sub(t.epoch))
		}
	}
	return nil
}

// write emits every span as a begin/end event pair, ordered by time, to
// an obs JSONL file at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	events := make([]obs.Event, 0, 2*len(t.spans)+len(t.extra))
	for _, s := range t.spans {
		attrs := fmt.Sprintf("span=%d parent=%d", s.id, s.parent)
		if s.attrs != "" {
			attrs += " " + s.attrs
		}
		begin := obs.Event{TS: int64(s.start.Sub(t.epoch)), Kind: obs.KindBegin, Scope: s.scope,
			Inst: s.inst, Proto: s.proto, Node: -1, Attrs: attrs}
		end := begin
		end.Kind = obs.KindEnd
		end.TS = int64(s.end.Sub(t.epoch))
		end.Dur = int64(s.end.Sub(s.start))
		events = append(events, begin, end)
	}
	events = append(events, t.extra...)
	t.mu.Unlock()
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })

	sink, err := obs.CreateJSONL(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	werr := sink.Write(events)
	if cerr := sink.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("trace: write %s: %w", path, werr)
	}
	return nil
}
