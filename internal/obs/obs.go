// Package obs is the observability subsystem: a stdlib-only metrics
// registry whose increment path is allocation-free, an event-trace ring
// buffer, and an opt-in HTTP endpoint (Prometheus text format, expvar-style
// JSON, net/http/pprof).
//
// The paper's whole argument is quantitative — filtering cost per event,
// table size, flood counts — so the repro's components (broker, router,
// overlay, netoverlay) register their counters here instead of keeping
// ad-hoc atomic fields readable only at shutdown. Their public Stats
// snapshot structs are preserved as *views* over registry instruments, and
// the live registry adds what a shutdown report cannot: latency histograms
// (p50/p99 without stopping the world), per-peer queue gauges, and per-hop
// federation latency for sampled events.
//
// Hot-path discipline: Counter.Inc/Add, Gauge.Set/Add and
// Histogram.Observe are single atomic operations — no locks, no
// allocation, `//nclint:hotpath`-clean, pinned by AllocsPerRun budgets —
// so instruments can sit on the match/publish spine without perturbing
// the numbers they measure. Instrument *creation* (Registry.Counter and
// friends) takes the registry lock and may allocate; components create
// their handles once at construction, never per event.
//
// Snapshot coherence: Registry.Snapshot reads instruments in reverse
// registration order. Components register cause-counters before
// effect-counters (published before forwarded, say), so a snapshot reads
// the effect first and its cause after — any effect present in the
// snapshot has its cause counted too, and causal invariants like
// "Forwarded implies an earlier Publish" reconcile even while writers are
// mid-storm. Per-instrument reads stay individually atomic; the ordering
// is what makes the combination coherent.
//
// Architecture: only cmd/* and this package may import net/http (the arch
// policy pins this); engine packages stay pure compute and never import
// obs — the broker observes around the engine, not inside it.
package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 instrument.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
//
//nclint:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
//
//nclint:hotpath
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable int64 instrument.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
//
//nclint:hotpath
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (negative deltas decrement).
//
//nclint:hotpath
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Kind tags an instrument for exposition.
type Kind uint8

// Instrument kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
	// KindCounterFunc and KindGaugeFunc are computed at snapshot time from
	// a callback — the shape for values that already live elsewhere under
	// their own lock (spill-queue depths, say) and would be double
	// bookkeeping as stored instruments.
	KindCounterFunc
	KindGaugeFunc
)

// instrument is one registered name.
type instrument struct {
	name string
	kind Kind
	c    *Counter
	g    *Gauge
	h    *Histogram
	cf   func() uint64
	gf   func() int64
}

// Registry is a namespace of instruments. All methods are safe for
// concurrent use; instrument handles returned by Counter/Gauge/Histogram
// are get-or-create, so components sharing a registry under the same name
// share the instrument (routers sharing a registry write the same
// counters, and their totals are one snapshot read).
type Registry struct {
	mu      sync.RWMutex
	byName  map[string]*instrument
	ordered []*instrument // registration order; Snapshot reads it backwards
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*instrument, 32)}
}

// Counter returns the counter registered under name, creating it if
// needed. It panics if the name is already registered as another kind —
// instrument names are API, and a kind clash is a programming error worth
// failing loudly over.
func (r *Registry) Counter(name string) *Counter {
	ins := r.getOrCreate(name, KindCounter)
	return ins.c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	ins := r.getOrCreate(name, KindGauge)
	return ins.g
}

// Histogram returns the histogram registered under name, creating it if
// needed.
func (r *Registry) Histogram(name string) *Histogram {
	ins := r.getOrCreate(name, KindHistogram)
	return ins.h
}

// CounterFunc registers a counter whose value is computed by fn at
// snapshot time. Re-registering a name replaces its callback (a
// reconnected peer re-claims its instrument).
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	ins := r.getOrCreate(name, KindCounterFunc)
	r.mu.Lock()
	ins.cf = fn
	r.mu.Unlock()
}

// GaugeFunc registers a gauge whose value is computed by fn at snapshot
// time. Re-registering a name replaces its callback.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	ins := r.getOrCreate(name, KindGaugeFunc)
	r.mu.Lock()
	ins.gf = fn
	r.mu.Unlock()
}

// Unregister removes an instrument (a detached peer's gauges, say).
// Unknown names are a no-op.
func (r *Registry) Unregister(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ins, ok := r.byName[name]
	if !ok {
		return
	}
	delete(r.byName, name)
	for i, o := range r.ordered {
		if o == ins {
			r.ordered = append(r.ordered[:i], r.ordered[i+1:]...)
			break
		}
	}
}

func (r *Registry) getOrCreate(name string, kind Kind) *instrument {
	r.mu.RLock()
	ins, ok := r.byName[name]
	r.mu.RUnlock()
	if ok {
		if ins.kind != kind {
			panic("obs: instrument " + name + " re-registered as a different kind")
		}
		return ins
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if ins, ok = r.byName[name]; ok { // lost the creation race
		if ins.kind != kind {
			panic("obs: instrument " + name + " re-registered as a different kind")
		}
		return ins
	}
	ins = &instrument{name: name, kind: kind}
	switch kind {
	case KindCounter:
		ins.c = &Counter{}
	case KindGauge:
		ins.g = &Gauge{}
	case KindHistogram:
		ins.h = newHistogram()
	}
	r.byName[name] = ins
	r.ordered = append(r.ordered, ins)
	return ins
}

// Sample is one instrument's snapshot value. Exactly one of the value
// fields is meaningful, selected by Kind: counters use Value, gauges use
// GaugeValue, histograms use Hist.
type Sample struct {
	Name       string
	Kind       Kind
	Value      uint64
	GaugeValue int64
	Hist       HistogramSnapshot
}

// Snapshot reads every instrument. Values are read in reverse
// registration order (see the package comment on coherence) and returned
// in registration order, so displays stay cause-first while the read
// ordering keeps causal invariants intact.
func (r *Registry) Snapshot() []Sample {
	r.mu.RLock()
	ordered := make([]*instrument, len(r.ordered))
	copy(ordered, r.ordered)
	r.mu.RUnlock()
	out := make([]Sample, len(ordered))
	for i := len(ordered) - 1; i >= 0; i-- {
		ins := ordered[i]
		s := Sample{Name: ins.name, Kind: ins.kind}
		switch ins.kind {
		case KindCounter:
			s.Value = ins.c.Value()
		case KindGauge:
			s.GaugeValue = ins.g.Value()
		case KindHistogram:
			s.Hist = ins.h.Snapshot()
		case KindCounterFunc:
			s.Value = ins.cf()
		case KindGaugeFunc:
			s.GaugeValue = ins.gf()
		}
		out[i] = s
	}
	return out
}

// Get returns the sample of one instrument by name; ok is false for
// unknown names. Reads are as atomic as Snapshot's per-instrument reads.
func (r *Registry) Get(name string) (Sample, bool) {
	r.mu.RLock()
	ins, ok := r.byName[name]
	r.mu.RUnlock()
	if !ok {
		return Sample{}, false
	}
	s := Sample{Name: ins.name, Kind: ins.kind}
	switch ins.kind {
	case KindCounter:
		s.Value = ins.c.Value()
	case KindGauge:
		s.GaugeValue = ins.g.Value()
	case KindHistogram:
		s.Hist = ins.h.Snapshot()
	case KindCounterFunc:
		s.Value = ins.cf()
	case KindGaugeFunc:
		s.GaugeValue = ins.gf()
	}
	return s, true
}

// Len reports the registered instrument count.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.ordered)
}
