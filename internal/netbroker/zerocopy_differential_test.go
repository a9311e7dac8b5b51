package netbroker

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"noncanon/internal/broker"
	"noncanon/internal/event"
	"noncanon/internal/sublang"
	"noncanon/internal/wire"
)

// Differential proof that the zero-copy decode path is invisible: for
// every broker engine shape, an event decoded in aliasing mode (and
// Retained, with its frame buffer then clobbered) matches exactly the
// same subscriptions and delivers exactly the same payloads as the same
// bytes decoded in copying mode. The package sits here rather than in
// internal/broker because the experiment needs both the broker and the
// wire codec, and layering lets only the transports see both.

// advFilters are textual subscriptions whose operands probe float64 edge
// cases: the 2^53 integer-precision boundary, huge magnitudes, negative
// zero, plus string and existence predicates over the adversarial values.
func advFilters() []string {
	return []string{
		`price > 9007199254740992`,  // 2^53
		`price >= 9007199254740993`, // 2^53+1: rounds to 2^53 as float
		`price < -9007199254740992`,
		`price != 0`,
		`price = 0`, // hits -0.0 vs +0 equality
		`price <= 1.5`,
		`qty > 4611686018427387904`, // 2^62: int vs float ordering
		`qty != 42`,
		`exists price`,
		`exists missing`,
		`sym = "AAPL"`,
		`sym prefix ""`,
		`sym contains "üb"`,
		`flag = true`,
		`price > 0 and qty < 100`,
		`sym = "" or price >= 1e308`,
		`not (price < 9007199254740993)`,
	}
}

// advEvents generates events drawing values from the adversarial pool:
// NaN, the infinities, the 2^53 boundary and its neighbours, negative
// zero, extreme ints, and volatile strings (which the aliasing decoder
// borrows from the frame buffer).
func advEvents(rng *rand.Rand, n int) []event.Event {
	floats := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), 0,
		9007199254740992, 9007199254740993, -9007199254740993,
		1.5, 1e308, -1e308,
	}
	ints := []int64{math.MaxInt64, math.MinInt64, 0, 42, 1 << 62}
	strs := []string{"", "\x00", "üben", "AAPL", "a longer volatile string value"}
	evs := make([]event.Event, n)
	for i := range evs {
		ev := event.New()
		if rng.Intn(4) > 0 {
			if rng.Intn(2) == 0 {
				ev = ev.Set("price", floats[rng.Intn(len(floats))])
			} else {
				ev = ev.Set("price", ints[rng.Intn(len(ints))])
			}
		}
		if rng.Intn(4) > 0 {
			ev = ev.Set("qty", ints[rng.Intn(len(ints))])
		}
		if rng.Intn(4) > 0 {
			ev = ev.Set("sym", strs[rng.Intn(len(strs))])
		}
		if rng.Intn(2) == 0 {
			ev = ev.Set("flag", rng.Intn(2) == 0)
		}
		evs[i] = ev
	}
	return evs
}

// recorder collects delivered event renderings per subscription slot.
type recorder struct {
	mu   sync.Mutex
	got  [][]string
	seen int
}

func newRecorder(slots int) *recorder { return &recorder{got: make([][]string, slots)} }

func (r *recorder) handler(slot int) func(event.Event) {
	return func(ev event.Event) {
		r.mu.Lock()
		r.got[slot] = append(r.got[slot], ev.String())
		r.seen++
		r.mu.Unlock()
	}
}

func (r *recorder) total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen
}

func (r *recorder) snapshot() [][]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([][]string, len(r.got))
	for i, g := range r.got {
		out[i] = append([]string(nil), g...)
		sort.Strings(out[i])
	}
	return out
}

func TestDifferentialAliasDecodeAcrossEngines(t *testing.T) {
	configs := []struct {
		name    string
		opts    broker.Options
		filters []string
	}{
		{"plain", broker.Options{}, advFilters()},
		// Every filter twice: the second copy interns into the first's
		// poset entry, so half the subscribers share an engine entry.
		{"aggregate", broker.Options{Aggregate: true}, append(advFilters(), advFilters()...)},
		// Every filter once: the ones the poset finds covered (exists price
		// covers each price comparison) hang beneath the frontier and are
		// re-checked at delivery.
		{"dag", broker.Options{Aggregate: true}, advFilters()},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			filters := tc.filters
			opts := tc.opts
			opts.QueueSize = 4096
			bCopy := broker.New(opts)
			defer bCopy.Close()
			bAlias := broker.New(opts)
			defer bAlias.Close()
			recCopy := newRecorder(len(filters))
			recAlias := newRecorder(len(filters))
			for i, f := range filters {
				expr, err := sublang.Parse(f)
				if err != nil {
					t.Fatalf("parse %q: %v", f, err)
				}
				if _, err := bCopy.Subscribe(expr, recCopy.handler(i)); err != nil {
					t.Fatal(err)
				}
				expr2, err := sublang.Parse(f)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := bAlias.Subscribe(expr2, recAlias.handler(i)); err != nil {
					t.Fatal(err)
				}
			}
			if opts.Aggregate {
				st := bAlias.Stats()
				if st.DistinctFilters != len(advFilters()) || st.CoveredSubscribers == 0 {
					t.Fatalf("aggregation not exercised: %d distinct filters (want %d), %d covered subscribers",
						st.DistinctFilters, len(advFilters()), st.CoveredSubscribers)
				}
			}

			rng := rand.New(rand.NewSource(7))
			want := 0
			for i, ev := range advEvents(rng, 300) {
				enc := wire.AppendEvent(nil, ev)
				evCopy, _, err := wire.ReadEvent(enc)
				if err != nil {
					t.Fatalf("event %d: copy decode: %v", i, err)
				}
				aliasBuf := append([]byte(nil), enc...)
				evAlias, _, err := wire.ReadEventAlias(aliasBuf)
				if err != nil {
					t.Fatalf("event %d: alias decode: %v", i, err)
				}
				evAlias = evAlias.Retain()
				for j := range aliasBuf { // the reader loop's next frame
					aliasBuf[j] = 0xFF
				}
				if !evCopy.Equal(evAlias) {
					t.Fatalf("event %d: alias+Retain diverged from copy:\n copy  %s\n alias %s",
						i, evCopy, evAlias)
				}
				nC, err := bCopy.Publish(evCopy)
				if err != nil {
					t.Fatal(err)
				}
				nA, err := bAlias.Publish(evAlias)
				if err != nil {
					t.Fatal(err)
				}
				if nC != nA {
					t.Fatalf("event %d %s: copy matched %d subs, alias matched %d", i, evCopy, nC, nA)
				}
				want += nC
			}

			deadline := time.Now().Add(5 * time.Second)
			for recCopy.total() < want || recAlias.total() < want {
				if time.Now().After(deadline) {
					t.Fatalf("deliveries incomplete: copy %d alias %d want %d",
						recCopy.total(), recAlias.total(), want)
				}
				time.Sleep(time.Millisecond)
			}
			gotCopy, gotAlias := recCopy.snapshot(), recAlias.snapshot()
			for i := range filters {
				if fmt.Sprint(gotCopy[i]) != fmt.Sprint(gotAlias[i]) {
					t.Errorf("filter %q delivered different events:\n copy  %v\n alias %v",
						filters[i], gotCopy[i], gotAlias[i])
				}
			}
		})
	}
}
