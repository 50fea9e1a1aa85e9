package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// update share its id; Parent is the enclosing span (0 for a top-level
// span). Times are offsets from the recorder's epoch.
type span struct {
	ID     int32         `json:"id"`
	Parent int32         `json:"parent"`
	Update int64         `json:"update"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// spans records the benchmark's own spans in memory. The recorder only
// brackets calls the benchmark makes; the program under test is not
// instrumented by it. A disabled recorder (the untraced run, or an
// untraced update of the traced run) records nothing and costs one
// branch per call.
type spans struct {
	on    bool
	epoch time.Time
	all   []span
	stack []int32
	// iters holds the start of every timed loop iteration and whether
	// it was traced, so coverage can be judged on traced iterations.
	iters []iter
}

type iter struct {
	start time.Duration
	on    bool
}

// next starts a timed loop iteration, traced or not.
func (s *spans) next(on bool) {
	s.on = on
	s.iters = append(s.iters, iter{start: time.Since(s.epoch), on: on})
}

func newSpans() *spans {
	return &spans{epoch: time.Now(), all: make([]span, 0, 1<<16)}
}

// do runs f inside a span named name, nested under the innermost open
// span.
func (s *spans) do(name string, update int64, f func()) {
	if !s.on {
		f()
		return
	}
	id := int32(len(s.all) + 1)
	var parent int32
	if n := len(s.stack); n > 0 {
		parent = s.stack[n-1]
	}
	s.all = append(s.all, span{ID: id, Parent: parent, Update: update, Name: name, Start: time.Since(s.epoch)})
	s.stack = append(s.stack, id)
	f()
	s.stack = s.stack[:len(s.stack)-1]
	s.all[id-1].End = time.Since(s.epoch)
}

// layerTime is the aggregate of one span name.
type layerTime struct {
	calls int
	total time.Duration
	self  time.Duration
}

// layers sums every span name's calls, total time and self time (its
// duration minus the time its direct children cover). Spans only nest
// on one goroutine, so children never overlap each other.
func (s *spans) layers() map[string]*layerTime {
	child := make([]time.Duration, len(s.all)+1)
	for _, sp := range s.all {
		if sp.Parent != 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	out := map[string]*layerTime{}
	for _, sp := range s.all {
		lt := out[sp.Name]
		if lt == nil {
			lt = &layerTime{}
			out[sp.Name] = lt
		}
		d := sp.End - sp.Start
		lt.calls++
		lt.total += d
		lt.self += d - child[sp.ID]
	}
	return out
}

// coverage is the share of the traced loop iterations' wall time that
// top-level spans cover; end closes the last iteration.
func (s *spans) coverage(end time.Duration) float64 {
	var covered, total time.Duration
	j := 0
	for i, it := range s.iters {
		to := end
		if i+1 < len(s.iters) {
			to = s.iters[i+1].start
		}
		if !it.on {
			continue
		}
		total += to - it.start
		for ; j < len(s.all) && s.all[j].Start < to; j++ {
			sp := s.all[j]
			if sp.Parent == 0 && sp.Start >= it.start {
				covered += min(sp.End, to) - sp.Start
			}
		}
	}
	return ratio(float64(covered), float64(total))
}

// write stores every span as one JSON object per line.
func (s *spans) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range s.all {
		if err := enc.Encode(sp); err != nil {
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
