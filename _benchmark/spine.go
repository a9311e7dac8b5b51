package main

// Part A of the traced run: the workload's own population and event sequence
// replayed on one goroutine through a hand-assembled spine, one timed public
// call per layer, every call a span. The spans give the per-layer times; a
// few loops beside the spine give the numbers a single call cannot
// (allocations, batches, set-up costs per subscription).

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"time"
)

const (
	spineEvents  = 2000 // events replayed, budget permitting
	sampleEvery  = 20   // every n-th subscription is unsubscribed and re-subscribed for the unsubscribe timings
	dagFilters   = 4096 // filters the covering DAG is built over, at most
	allocEvents  = 200  // events per allocation count
	batchSize    = 64
	batchRepeats = 8
)

// arrivals collects handler entries of one published event: handlers run on
// the program's delivery goroutines and stamp their entry, the replaying
// goroutine sleeps until the oracle's count is in.
type arrivals struct {
	n    atomic.Int64
	want atomic.Int64
	at   [64]atomic.Int64
	done chan struct{}
}

func newArrivals() *arrivals { return &arrivals{done: make(chan struct{}, 1)} }

func (a *arrivals) enter() {
	now := nowNs()
	j := a.n.Add(1)
	if j <= int64(len(a.at)) {
		a.at[j-1].Store(now)
	}
	if j == a.want.Load() {
		a.done <- struct{}{}
	}
}

// expect arms the collector for the next event.
func (a *arrivals) expect(n int) {
	a.n.Store(0)
	a.want.Store(int64(n))
}

func (a *arrivals) wait() error {
	if a.want.Load() == 0 {
		return nil
	}
	select {
	case <-a.done:
		return nil
	case <-time.After(stallTimeout):
		return fmt.Errorf("replay stalled: %d of %d handler entries", a.n.Load(), a.want.Load())
	}
}

// clockCost is the median cost of reading the clock twice around nothing; it
// is taken off every span-derived time.
func clockCost() float64 {
	d := make([]float64, 2001)
	for i := range d {
		t0 := nowNs()
		d[i] = float64(nowNs() - t0)
	}
	return median(d)
}

// mallocs counts heap allocations of f, per call, over n calls.
func mallocs(n int, f func(i int)) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// layerRun is everything Part A built, kept so that runLayers reads top-down.
type layerRun struct {
	pop   *population
	tr    *tracer
	m     map[string]float64 // per-layer metric values
	clock float64

	eng  *engine
	br   inprocBroker
	node overlayNode
	fq   flowQueue
	loop net.Conn // client end of a loopback connection whose far end is drained
	hits *arrivals
	mism int64 // replayed events whose match count differed from the oracle's
}

// medianSpan is the median duration of a layer's spans, net of the clock.
func (l *layerRun) medianSpan(durs map[string][]float64, layer string) float64 {
	return max(median(durs[layer])-l.clock, 0)
}

// runLayers fills m with every per-layer metric that does not need the
// serving rig, and returns the mean stage self times of the spine (ns) for
// the unaccounted-time sum, and the number of oracle mismatches.
func runLayers(pop *population, tr *tracer, budget time.Duration, m map[string]float64) (stage map[string]float64, mismatches int64, err error) {
	l := &layerRun{pop: pop, tr: tr, m: m, clock: clockCost(), hits: newArrivals(), fq: newFlowQueue()}
	if err := l.build(); err != nil {
		return nil, 0, err
	}
	defer l.close()
	first := len(tr.spans)
	if err := l.replay(budget); err != nil {
		return nil, 0, err
	}
	spans := tr.spans[first:]
	durs, self := layerDurations(spans), selfTimes(spans)
	for layer, name := range map[string]string{
		"wire.encode_event":          "wire.encode_event_ns",
		"wire.frame_roundtrip":       "wire.frame_roundtrip_ns",
		"wire.decode_alias":          "wire.decode_alias_ns",
		"index.match":                "index.match_ns",
		"core.match_phase2":          "core.match_phase2_ns",
		"core.match_into":            "core.match_into_ns",
		"broker.publish":             "broker.publish_ns",
		"netbroker.frame_write":      "netbroker.frame_write_floor_ns",
		"router.flowqueue_offer_pop": "router.flowqueue_offer_pop_ns",
		"netoverlay.local_publish":   "netoverlay.local_publish_ns",
	} {
		m[name] = l.medianSpan(durs, layer)
	}
	m["broker.queue_wait_us"] = l.medianSpan(durs, "broker.queue_wait") / 1e3
	// Mean self time per stage is what the unaccounted-time sum adds up;
	// the median of Publish's is what it costs beside the match it contains.
	selfs := map[string][]float64{}
	for _, s := range spans {
		selfs[s.layer] = append(selfs[s.layer], float64(self[s.id]))
	}
	stage = map[string]float64{}
	for layer, xs := range selfs {
		stage[layer] = max(mean(xs)-l.clock, 0)
	}
	m["broker.fanout_self_ns"] = max(median(selfs["broker.publish"])-l.clock, 0)
	if err := l.beside(); err != nil {
		return nil, 0, err
	}
	return stage, l.mism, nil
}

// build sets up every layer on the workload's population, timing the per-
// subscription costs on the way.
func (l *layerRun) build() error {
	pop, m := l.pop, l.m
	n := len(pop.exprs)
	timeEach := func(count int, f func(i int) error) (float64, error) {
		d := make([]float64, count)
		for i := range d {
			t0 := nowNs()
			if err := f(i); err != nil {
				return 0, err
			}
			d[i] = float64(nowNs() - t0)
		}
		return max(median(d)-l.clock, 0), nil
	}
	var err error
	if m["sublang.parse_ns"], err = timeEach(n, func(i int) error { _, err := parseSub(pop.texts[i]); return err }); err != nil {
		return err
	}

	// core: the engine the spine matches on.
	l.eng = newEngine()
	ids := make([]SubID, n)
	if m["core.subscribe_ns"], err = timeEach(n, func(i int) (err error) { ids[i], err = l.eng.subscribe(pop.exprs[i]); return }); err != nil {
		return err
	}
	m["core.mem_bytes_per_sub"] = float64(l.eng.memBytes()) / float64(n)
	sampled := (n + sampleEvery - 1) / sampleEvery
	if m["core.unsubscribe_ns"], err = timeEach(sampled, func(j int) error { return l.eng.unsubscribe(ids[j*sampleEvery]) }); err != nil {
		return err
	}
	for j := 0; j < sampled; j++ {
		if ids[j*sampleEvery], err = l.eng.subscribe(pop.exprs[j*sampleEvery]); err != nil {
			return err
		}
	}

	// cover/dag: built and taken down again; no default-option path uses it.
	d, nodes := newCoverDAG(), make([]dagNode, min(n, dagFilters))
	m["dag.add_ns"], _ = timeEach(len(nodes), func(i int) error { nodes[i] = d.add(pop.exprs[i]); return nil })
	m["dag.frontier_share"] = d.frontierShare()
	m["dag.release_ns"], _ = timeEach(len(nodes), func(i int) error { d.release(nodes[i]); return nil })

	// broker: in process, every subscription with a handler that stamps its entry.
	mem0, g0 := memInUse(), runtime.NumGoroutine()
	l.br = newInprocBroker()
	brSubs := make([]inprocSub, n)
	enter := func(Event) { l.hits.enter() }
	if m["broker.subscribe_ns"], err = timeEach(n, func(i int) (err error) { brSubs[i], err = l.br.subscribe(pop.exprs[i], enter); return }); err != nil {
		return err
	}
	m["broker.mem_bytes_per_sub"] = float64(memInUse()-mem0) / float64(n)
	m["broker.goroutines_per_sub"] = float64(runtime.NumGoroutine()-g0) / float64(n)
	if m["broker.unsubscribe_ns"], err = timeEach(sampled, func(j int) error { return brSubs[j*sampleEvery].unsubscribe() }); err != nil {
		return err
	}
	for j := 0; j < sampled; j++ {
		if brSubs[j*sampleEvery], err = l.br.subscribe(pop.exprs[j*sampleEvery], enter); err != nil {
			return err
		}
	}

	// netoverlay: one node, no peers. Subscribe is asynchronous; the node is
	// ready when an event for the last filter reaches its handler.
	l.node = newOverlayNode(9)
	for _, x := range pop.exprs {
		if _, err := l.node.subscribe(x, enter); err != nil {
			return err
		}
	}
	probe, want := pop.sentinel()
	l.hits.expect(want)
	if err := l.node.publish(probe); err != nil {
		return err
	}
	if err := l.hits.wait(); err != nil {
		return fmt.Errorf("single overlay node: %w", err)
	}

	// A loopback connection whose far end only drains: the floor of one
	// delivery-sized frame write.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	if l.loop, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		return err
	}
	far, err := ln.Accept()
	if err != nil {
		return err
	}
	go func() {
		io.Copy(io.Discard, far) // ends when close() closes the near end
		far.Close()
	}()
	return nil
}

func (l *layerRun) close() {
	if l.loop != nil {
		l.loop.Close()
	}
	l.br.close()
	l.node.close()
}

// replay is the spine. Each event is one trace: a root span with one child
// per stage, in the order an event crosses the layers.
func (l *layerRun) replay(budget time.Duration) error {
	pop, tr := l.pop, l.tr
	var (
		enc, rbuf, denc []byte
		frame           bytes.Buffer
		fulfilled       []PredID
		matched         []SubID
		sumFulfilled    float64
		sumCandidates   float64
		sumLeaves       float64
		sumBytes        float64
		waits           []float64
		deadline        = nowNs() + int64(budget)
		events          int64
	)
	check := func(got, want int) {
		if got != want {
			l.mism++
		}
	}
	for ; events < spineEvents && nowNs() < deadline; events++ {
		seq := events
		ev, key := pop.event(seq, 0)
		want := popcount(pop.expected(ev, key))
		root := tr.add(seq, 0, "spine.event", nowNs(), 0)
		stage := func(layer string, t0 int64) int32 { return tr.add(seq, root, layer, t0, nowNs()) }

		t := nowNs()
		enc = appendEvent(enc[:0], ev)
		stage("wire.encode_event", t)
		sumBytes += float64(len(enc))

		t = nowNs()
		frame.Reset()
		if err := writeFrame(&frame, msgPublish, enc); err != nil {
			return err
		}
		_, payload, buf, err := readFrameInto(&frame, rbuf)
		rbuf = buf
		stage("wire.frame_roundtrip", t)
		if err != nil {
			return err
		}

		t = nowNs()
		dec, err := readEventAlias(payload)
		stage("wire.decode_alias", t)
		if err != nil {
			return err
		}

		t = nowNs()
		fulfilled = l.eng.phase1(dec, fulfilled[:0])
		stage("index.match", t)
		sumFulfilled += float64(len(fulfilled))

		t = nowNs()
		got := l.eng.phase2(fulfilled)
		stage("core.match_phase2", t)
		check(len(got), want)
		leaves, candidates := l.eng.phase2Work(fulfilled)
		sumLeaves += float64(leaves)
		sumCandidates += float64(candidates)

		// Both phases in one call, as the broker makes it. The call cannot
		// be seen inside Publish from here, so it is timed on its own and
		// then placed at the start of the publish span as its child.
		t = nowNs()
		matched = l.eng.matchInto(dec, matched[:0])
		matchNs := nowNs() - t
		check(len(matched), want)

		l.hits.expect(want)
		t = nowNs()
		n, err := l.br.publish(dec)
		returned := nowNs()
		pub := tr.add(seq, root, "broker.publish", t, returned)
		tr.add(seq, pub, "core.match_into", t, min(t+matchNs, returned))
		if err != nil {
			return err
		}
		check(n, want)
		if err := l.hits.wait(); err != nil {
			return err
		}
		if want > 0 {
			// One span per event: Publish's return to the median handler
			// entry. A handler can be in before Publish is back.
			at := make([]float64, want)
			for i := range at {
				at[i] = float64(max(l.hits.at[i].Load(), returned))
				waits = append(waits, at[i]-float64(returned))
			}
			tr.add(seq, root, "broker.queue_wait", returned, int64(median(at)))
		}

		t = nowNs()
		denc = appendU64(denc[:0], 1)
		denc = appendEvent(denc, dec)
		stage("netbroker.delivery_encode", t)

		t = nowNs()
		err = writeFrame(l.loop, msgEvent, denc)
		stage("netbroker.frame_write", t)
		if err != nil {
			return err
		}

		t = nowNs()
		ok := l.fq.offerPop(ev)
		stage("router.flowqueue_offer_pop", t)
		if !ok {
			return fmt.Errorf("flow queue shed event %d", seq)
		}

		l.hits.expect(want)
		t = nowNs()
		if err := l.node.publish(ev); err != nil {
			return err
		}
		if err := l.hits.wait(); err != nil {
			return err
		}
		tr.add(seq, root, "netoverlay.local_publish", t, nowNs())
		tr.spans[root-1].end = nowNs()
	}
	if events == 0 {
		return fmt.Errorf("replay budget %v too short for one event", budget)
	}
	e := float64(events)
	l.m["wire.event_bytes"] = sumBytes / e
	l.m["index.fulfilled_per_event"] = sumFulfilled / e
	l.m["core.candidates_per_event"] = sumCandidates / e
	l.m["core.leaves_per_event"] = sumLeaves / e
	return nil
}

// beside measures what the spine's single calls cannot: allocation counts,
// the batch path and the in-process broker's CPU per delivery.
func (l *layerRun) beside() error {
	pop, m := l.pop, l.m
	evs := make([]Event, allocEvents)
	encoded := make([][]byte, allocEvents)
	wants := make([]int, allocEvents)
	for i := range evs {
		var key int32
		evs[i], key = pop.event(int64(i), 0)
		encoded[i] = appendEvent(nil, evs[i])
		wants[i] = popcount(pop.expected(evs[i], key))
	}
	m["wire.decode_alias_allocs"] = mallocs(allocEvents, func(i int) { readEventAlias(encoded[i]) })
	var out []SubID
	m["core.match_into_allocs"] = mallocs(allocEvents, func(i int) { out = l.eng.matchInto(evs[i], out[:0]) })
	var failed error
	publish := func(i int) {
		l.hits.expect(wants[i])
		if _, err := l.br.publish(evs[i]); err != nil {
			failed = err
		}
		if err := l.hits.wait(); err != nil {
			failed = err
		}
	}
	m["broker.publish_allocs"] = mallocs(allocEvents, publish)
	if failed != nil {
		return failed
	}

	var perEvent []float64
	for r := 0; r < batchRepeats; r++ {
		batch := evs[(r*batchSize)%(allocEvents-batchSize):][:batchSize]
		total := 0
		for i := range batch {
			total += wants[(r*batchSize)%(allocEvents-batchSize)+i]
		}
		l.hits.expect(total)
		t0 := nowNs()
		if _, err := l.br.publishBatch(batch); err != nil {
			return err
		}
		perEvent = append(perEvent, float64(nowNs()-t0)/batchSize)
		if err := l.hits.wait(); err != nil {
			return err
		}
	}
	m["broker.publish_batch64_ns_per_event"] = median(perEvent)

	// CPU per delivery of the in-process broker on the same population: what
	// netbroker.delivery_self_us subtracts from the TCP figure.
	c0, deliveries := cpuNs(), 0
	for end := nowNs() + int64(time.Second); nowNs() < end; {
		for i := range evs {
			publish(i)
			deliveries += wants[i]
		}
	}
	if failed != nil {
		return failed
	}
	m["broker.cpu_us_per_delivery"] = float64(cpuNs()-c0) / 1e3 / float64(max(deliveries, 1))
	return nil
}
