package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// replayRoot names the parent span of every replayed call: replays re-run
// one function on a shadow trainer, so they hang under their own root and
// never count toward an op.
const replayRoot = "replay"

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one op share its id.
type span struct {
	name       string
	parent     int   // index of the causing span, -1 for a root
	op         int   // op id, -1 for replays
	start, end int64 // ns since the tracer started
}

// tracer keeps spans in memory until the run ends. It is driven by the one
// goroutine that issues ops; switched off, begin and end cost a branch.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle (-1 while tracing is off).
func (t *tracer) begin(name string, parent, op int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, op: op, start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(h int) {
	if h >= 0 {
		t.spans[h].end = int64(time.Since(t.t0))
	}
}

// mean returns the mean duration of the spans with the given name, in
// nanoseconds, and how many there were.
func (t *tracer) mean(name string) (float64, int) {
	var sum int64
	n := 0
	for i := range t.spans {
		if t.spans[i].name == name {
			sum += t.spans[i].end - t.spans[i].start
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(sum) / float64(n), n
}

// selfTimes returns, per span, its duration minus the part of that interval
// its child spans cover (overlapping children are counted once).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, edge := int64(0), s.start
		for _, k := range kids {
			lo, hi := spans[k].start, spans[k].end
			if lo < edge {
				lo = edge
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.end - s.start) - covered
	}
	return self
}

// layerRow is one line of the per-workload layer table.
type layerRow struct {
	name     string
	calls    int
	total    int64 // ns
	self     int64 // ns
	replayed bool
	// share is the layer's part of an op's time, in percent. For an op's own
	// spans it is self time over the summed op spans; for a replayed call it
	// is the mean call over the mean op — what the call would cost an op that
	// made it once.
	share float64
}

// layerTable aggregates spans by name into the regenerable form of the
// ROADMAP's "what a profile says today" table, largest share first, and
// returns the share of op time no child span covers.
func layerTable(spans []span) (rows []layerRow, unattributedPct float64) {
	self := selfTimes(spans)
	byName := map[string]*layerRow{}
	var opTotal, opSelf int64
	ops := 0
	for i, s := range spans {
		root := i
		for spans[root].parent >= 0 {
			root = spans[root].parent
		}
		if s.parent < 0 && s.op >= 0 {
			opTotal += s.end - s.start
			opSelf += self[i]
			ops++
		}
		r := byName[s.name]
		if r == nil {
			r = &layerRow{name: s.name, replayed: spans[root].name == replayRoot}
			byName[s.name] = r
		}
		r.calls++
		r.total += s.end - s.start
		r.self += self[i]
	}
	for _, r := range byName {
		switch {
		case opTotal == 0:
		case r.replayed:
			r.share = 100 * (float64(r.total) / float64(r.calls)) / (float64(opTotal) / float64(ops))
		default:
			r.share = 100 * float64(r.self) / float64(opTotal)
		}
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].replayed != rows[b].replayed {
			return !rows[a].replayed
		}
		if rows[a].share != rows[b].share {
			return rows[a].share > rows[b].share
		}
		return rows[a].name < rows[b].name
	})
	if opTotal > 0 {
		unattributedPct = 100 * float64(opSelf) / float64(opTotal)
	}
	return rows, unattributedPct
}

// printLayerTable writes the layer table of one traced workload.
func printLayerTable(w io.Writer, workload string, spans []span) {
	rows, unattributed := layerTable(spans)
	fmt.Fprintf(w, "# layer table: %s (wall clock; replayed rows show mean call / mean op)\n", workload)
	fmt.Fprintf(w, "# %-28s %8s %12s %12s %8s\n", "layer", "calls", "total_ms", "self_ms", "share_%")
	for _, r := range rows {
		name := r.name
		if r.replayed && r.name != replayRoot {
			name = "  " + name
		}
		fmt.Fprintf(w, "# %-28s %8d %12.3f %12.3f %8.2f\n", name, r.calls,
			float64(r.total)/1e6, float64(r.self)/1e6, r.share)
	}
	fmt.Fprintf(w, "# op time not covered by a child span: %.2f%%\n", unattributed)
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChromeTrace writes the spans as Chrome trace-event JSON
// (chrome://tracing, Perfetto). Replays get their own track.
func writeChromeTrace(path string, spans []span) error {
	events := make([]chromeEvent, 0, len(spans))
	for i, s := range spans {
		tid := 1
		if s.op < 0 {
			tid = 2
		}
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: tid, Args: map[string]int{"id": i, "parent": s.parent, "op": s.op},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}
