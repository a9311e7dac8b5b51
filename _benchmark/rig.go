package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
)

// rig is one workload set up and ready to be driven: the program, the
// generator's two ends, and what differs between the TCP broker and the
// overlay line behind a few functions.
type rig struct {
	pop  *population
	sink *sink
	src  *source
	cost setupCost

	// subscribeOps subscribes and unsubscribes fresh filters as fast as
	// the program takes them for dur and returns the operations per second
	// of each of its windows (see probeWindow).
	subscribeOps func(dur time.Duration) ([]float64, error)
	// reconcile checks the program's own counters against the generator's
	// and returns the discrepancies as failures.
	reconcile func() (int64, error)
	close     func() error

	sub    *subscriber   // TCP only
	srv    *tcpServer    // TCP only
	nodes  []overlayNode // federated only: A, B, C
	noise  atomic.Int64  // federated: sentinel deliveries, not part of the oracle's multiset
	probes int64         // publishes made beside the source: the traced run's no-match probes
}

// probeWindow is the length of the subscribe probe's slices, and probeDepth
// how many filters it keeps in flight on the subscriber connection: enough
// that the program always finds the next request waiting, so that the probe
// reads what Subscribe and Unsubscribe cost. One at a time it read how fast
// the scheduler wakes two idle goroutines, which took one of two values —
// some 25 or some 42 thousand a second — for the life of a connection.
const (
	probeWindow = 200 * time.Millisecond
	probeDepth  = 16
)

// setupCost is what set-up took: wall time, memory held afterwards and
// goroutines started, each as a difference across the set-up.
type setupCost struct {
	seconds    float64
	memBytes   int64
	goroutines int
}

// memInUse is heap plus stack in use after a collection.
func memInUse() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse + ms.StackInuse)
}

// measureSetup times build and samples memory around it.
func measureSetup(pop *population, build func(*population) (*rig, error)) (*rig, error) {
	mem0, g0 := memInUse(), runtime.NumGoroutine()
	t0 := nowNs()
	r, err := build(pop)
	if err != nil {
		return nil, err
	}
	r.cost.seconds = float64(nowNs()-t0) / 1e9
	r.cost.memBytes = memInUse() - mem0
	r.cost.goroutines = runtime.NumGoroutine() - g0
	return r, nil
}

func buildRig(pop *population) (*rig, error) {
	if pop.spec.federated {
		return buildFederated(pop)
	}
	return buildTCP(pop)
}

// buildTCP starts the broker server with zero-value options and connects the
// generator: one publisher connection, one subscriber connection carrying
// every subscription.
func buildTCP(pop *population) (*rig, error) {
	srv, err := startTCPServer()
	if err != nil {
		return nil, err
	}
	pc, err := dialRaw(srv.addr)
	if err != nil {
		return nil, err
	}
	sc, err := dialRaw(srv.addr)
	if err != nil {
		return nil, err
	}
	k := newSink(pop)
	pub := &tcpPublisher{c: pc}
	r := &rig{pop: pop, sink: k, srv: srv, sub: newSubscriber(sc, k, pop)}
	r.src = &source{pop: pop, sink: k, send: pub.send}
	if err := r.sub.setup(pop.texts); err != nil {
		return nil, err
	}
	r.subscribeOps = func(dur time.Duration) ([]float64, error) {
		ops := newOpWindows(nowNs(), dur, probeWindow)
		r.sub.opsIn.Store(ops)
		r.sub.startChurn(probeDepth, false)
		time.Sleep(dur)
		err := r.sub.stopChurn()
		r.sub.opsIn.Store(nil)
		return ops.perSecond(), err
	}
	r.reconcile = func() (int64, error) {
		want, sent := uint64(k.received.Load()+r.sub.unstable), uint64(r.src.published+r.probes)
		var st brokerStats
		for end := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
			// Delivered counts a handler's return, which can trail the
			// arrival of what it wrote.
			if st = srv.stats(); st.delivered >= want || time.Now().After(end) {
				break
			}
		}
		if bad := int64(st.dropped) + absDiff(st.delivered, want) + absDiff(st.published, sent); bad != 0 {
			return bad, fmt.Errorf("broker counts published %d delivered %d dropped %d; generator published %d received %d",
				st.published, st.delivered, st.dropped, sent, want)
		}
		return 0, nil
	}
	r.close = func() error {
		err := r.sub.stop()
		pc.nc.Close()
		return errors.Join(err, srv.close())
	}
	return r, nil
}

func absDiff(a, b uint64) int64 {
	if a > b {
		return int64(a - b)
	}
	return int64(b - a)
}

// buildFederated starts the line A—B—C, subscribes every filter at C with an
// in-process handler, and publishes sentinels at A until the last filter's
// route has reached it.
func buildFederated(pop *population) (*rig, error) {
	k := newSink(pop)
	r := &rig{pop: pop, sink: k}
	for id := uint32(1); id <= 3; id++ {
		r.nodes = append(r.nodes, newOverlayNode(id))
	}
	a, b, c := r.nodes[0], r.nodes[1], r.nodes[2]
	r.close = func() error { return errors.Join(a.close(), b.close(), c.close()) }
	addrB, err := b.listen()
	if err != nil {
		return nil, err
	}
	if err := errors.Join(a.connect(addrB), c.connect(addrB)); err != nil {
		return nil, err
	}
	var ready atomic.Int64 // highest sentinel seen, as a positive number
	for i, x := range pop.exprs {
		i := i
		if _, err := c.subscribe(x, func(ev Event) {
			seq, _ := eventInt(ev, "seq")
			if seq < 0 {
				r.noise.Add(1)
				if -seq > ready.Load() {
					ready.Store(-seq)
				}
				return
			}
			ts, _ := eventInt(ev, "ts")
			k.deliver(i, seq, ts)
		}); err != nil {
			return nil, err
		}
	}
	var sentinel int64
	// settle publishes a fresh sentinel every 200 µs until one comes back:
	// links are FIFO, so everything C was asked before is then in effect at A.
	settle := func() error {
		first := sentinel + 1
		for end := time.Now().Add(stallTimeout); ready.Load() < first; time.Sleep(200 * time.Microsecond) {
			if time.Now().After(end) {
				return errors.New("federated: routes never reached the publishing node")
			}
			sentinel++
			ev, _ := pop.event(-sentinel, 0)
			if err := a.publish(ev); err != nil {
				return err
			}
		}
		return nil
	}
	if err := settle(); err != nil {
		return nil, err
	}
	r.src = &source{pop: pop, sink: k, send: a.publish}
	r.subscribeOps = func(dur time.Duration) ([]float64, error) {
		x, err := parseSub("grp = 999999")
		if err != nil {
			return nil, err
		}
		ops := newOpWindows(nowNs(), dur, probeWindow)
		for end := ops.from + int64(dur); nowNs() < end; {
			s, err := c.subscribe(x, func(Event) {})
			if err != nil {
				return nil, err
			}
			ops.count()
			if err := c.unsubscribe(s); err != nil {
				return nil, err
			}
			ops.count()
		}
		return ops.perSecond(), settle()
	}
	r.reconcile = func() (int64, error) {
		want := uint64(k.received.Load() + r.noise.Load())
		var sa, sb, sc overlayStats
		for end := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
			sa, sb, sc = a.stats(), b.stats(), c.stats()
			if sc.delivered >= want || time.Now().After(end) {
				break
			}
		}
		bad := absDiff(sc.delivered, want) + int64(sa.shed+sb.shed+sc.shed) + int64(sa.installErrors+sb.installErrors+sc.installErrors)
		if bad != 0 {
			return bad, fmt.Errorf("overlay counts delivered %d shed %d/%d/%d install errors %d/%d/%d; generator received %d",
				sc.delivered, sa.shed, sb.shed, sc.shed, sa.installErrors, sb.installErrors, sc.installErrors, want)
		}
		return 0, nil
	}
	return r, nil
}
