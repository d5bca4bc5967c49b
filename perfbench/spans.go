package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request
// share Req; Parent is the index of the span that caused this one, -1
// for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    string `json:"req,omitempty"`
	N      int    `json:"n,omitempty"` // items the call handled
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory while it is on; they are written out
// when the run ends.
type recorder struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// now is the time since the recorder's epoch; a nil recorder reads 0.
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// add records a span that started at start and ends now.
func (r *recorder) add(name, req string, start int64, n int) {
	end := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Parent: -1, Req: req, N: n})
	r.mu.Unlock()
}

// take returns the spans recorded since the last take.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// link sets each span's parent: a span carrying a request id is the
// child of the client span of that request; a span without one is the
// child of the one handler span whose interval contains it, if exactly
// one does.
func link(spans []span) {
	client := map[string]int{}
	var handlers []int
	for i, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "client "):
			client[s.Req] = i
		case strings.HasPrefix(s.Name, "handler ") && !strings.HasSuffix(s.Name, "/stream"):
			handlers = append(handlers, i)
		}
	}
	for i := range spans {
		s := &spans[i]
		switch {
		case strings.HasPrefix(s.Name, "client "):
			s.Parent = -1
		case s.Req != "":
			if p, ok := client[s.Req]; ok {
				s.Parent = p
			}
		default:
			found := -1
			for _, h := range handlers {
				if spans[h].Start <= s.Start && s.End <= spans[h].End {
					if found >= 0 {
						found = -1
						break
					}
					found = h
				}
			}
			s.Parent = found
		}
	}
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func selfTimes(spans []span) []time.Duration {
	kids := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - time.Duration(covered(kids[i], s.Start, s.End))
	}
	return self
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// writeSpans saves spans as JSONL.
func writeSpans(path string, spans []span) error {
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

// durations returns the durations of the spans named name, in µs, and
// the total of their item counts.
func durations(spans []span, name string) (usec []float64, items int) {
	for _, s := range spans {
		if s.Name == name {
			usec = append(usec, us(s.dur()))
			items += s.N
		}
	}
	return usec, items
}
