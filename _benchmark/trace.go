package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// span is one timed interval at a layer boundary. Spans of one event share
// trace (the event's seq); parent is the id of the span that caused this one,
// 0 for a root. All spans are recorded from this package, around calls into
// the layers: the program carries no probes yet.
type span struct {
	trace  int64
	id     int32
	parent int32
	layer  string
	start  int64
	end    int64
}

// tracer keeps spans in memory until the run ends. The publisher's spans and
// the receiver's receipts live in separate buffers, one per goroutine, and
// are linked when written.
type tracer struct {
	spans    []span
	receipts []receipt
	pubSpan  map[int64]int32 // seq → id of its publish span
}

type receipt struct{ seq, due, at int64 }

func newTracer() *tracer { return &tracer{pubSpan: map[int64]int32{}} }

func (t *tracer) add(trace int64, parent int32, layer string, start, end int64) int32 {
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{trace: trace, id: id, parent: parent, layer: layer, start: start, end: end})
	return id
}

// publish records the traced paced phase's publisher side: the event from
// its due time to the reply, and inside it the raw request → reply.
func (t *tracer) publish(seq, due, sent, acked int64) {
	root := t.add(seq, 0, "loadgen.event", due, acked)
	t.add(seq, root, "loadgen.publish_ack", sent, acked)
	t.pubSpan[seq] = root
}

// receipt records the receiver side: due time → arrival of one copy.
func (t *tracer) receipt(seq, due, at int64) {
	t.receipts = append(t.receipts, receipt{seq, due, at})
}

// link turns receipts into spans under their event's publish span. Call once
// both goroutines are idle.
func (t *tracer) link() {
	for _, r := range t.receipts {
		t.add(r.seq, t.pubSpan[r.seq], "loadgen.receipt", r.due, r.at)
	}
	t.receipts = nil
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its children cover. Overlapping children are not counted
// twice, and a child is clipped to its parent.
func selfTimes(spans []span) map[int32]int64 {
	children := make(map[int32][]*span)
	for i := range spans {
		s := &spans[i]
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[int32]int64, len(spans))
	for i := range spans {
		p := &spans[i]
		kids := children[p.id]
		sort.Slice(kids, func(a, b int) bool { return kids[a].start < kids[b].start })
		covered, edge := int64(0), p.start
		for _, c := range kids {
			lo, hi := max(c.start, edge), min(c.end, p.end)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[p.id] = p.end - p.start - covered
	}
	return self
}

// maxTraceSpans bounds trace.json; spans beyond it are counted, not written.
const maxTraceSpans = 250000

// write puts the spans in dir/trace.json, one JSON object per span inside
// one array, and returns the path.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	n := min(len(t.spans), maxTraceSpans)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"spans_recorded\":%d,\"spans_written\":%d,\"spans\":[\n", workload, seed, len(t.spans), n)
	for i, s := range t.spans[:n] {
		sep := ","
		if i == n-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"trace\":%d,\"span\":%d,\"parent\":%d,\"layer\":%q,\"start_ns\":%d,\"end_ns\":%d}%s\n",
			s.trace, s.id, s.parent, s.layer, s.start, s.end, sep)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// layerDurations collects, per layer, every span's duration in ns.
func layerDurations(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.layer] = append(out[s.layer], float64(s.end-s.start))
	}
	return out
}
