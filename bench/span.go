package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans are kept
// in memory and written out when the traced run ends; Parent is an index
// into the recorder's slice (-1 for a root), Iter the iteration the span
// belongs to, so one iteration's spans share an identifier.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Iter    int    `json:"iter"`
}

// recorder collects spans. A nil *recorder records nothing, which is how
// the untraced run pays one nil check per call site and no more.
type recorder struct {
	epoch time.Time
	spans []span
	stack []int
	iter  int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{
		Name: name, StartNS: time.Since(r.epoch).Nanoseconds(), Parent: parent, Iter: r.iter,
	})
	id := len(r.spans) - 1
	r.stack = append(r.stack, id)
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].EndNS = time.Since(r.epoch).Nanoseconds()
	r.stack = r.stack[:len(r.stack)-1]
}

// selfTimes returns each span's self time: its duration minus the part of
// that interval its direct children cover. Children of one parent are
// sequential here (one goroutine records), but overlapping children are
// merged anyway so a concurrent recorder cannot drive a self time
// negative.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.EndNS - s.StartNS
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].StartNS < spans[ks[b]].StartNS })
		var covered, hi int64 = 0, s.StartNS
		for _, k := range ks {
			lo, end := spans[k].StartNS, spans[k].EndNS
			if lo < hi {
				lo = hi
			}
			if end > s.EndNS {
				end = s.EndNS
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[i] -= covered
	}
	return self
}

// selfByName sums self time per span name, in nanoseconds.
func selfByName(spans []span) map[string]int64 {
	out := make(map[string]int64)
	for i, d := range selfTimes(spans) {
		out[spans[i].Name] += d
	}
	return out
}

// writeSpans dumps the spans as JSON.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
