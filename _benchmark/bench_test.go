package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestSliceQuartiles(t *testing.T) {
	// Eleven slices of one second publishing 100, 110, … 200 events, each
	// event delivered 64 times, at CPU costs falling from 20 to 10 µs an
	// event: the good quartile lies halfway between the third and the
	// fourth best slice.
	s := []sample{{0, 0, 0, 0}}
	for i := int64(0); i <= 10; i++ {
		p, d := s[len(s)-1], 100+10*i
		s = append(s, sample{ns: (i + 1) * 1e9, published: p.published + d, received: p.received + 64*d, cpuNs: p.cpuNs + d*(20-i)*1000})
	}
	var rates sliceRates
	rates.add(s[:6])
	rates.add(s[5:]) // a second segment: the slices pool
	deliveries, events, cpu := rates.good()
	if !near(deliveries, 64*175) || !near(events, 175) || !near(cpu, 12.5) {
		t.Fatalf("got %v deliveries/s, %v events/s, %v us/event", deliveries, events, cpu)
	}
	if got := goodQuartile([]float64{5, 1, 3}, false); !near(got, 2) {
		t.Errorf("good quartile of three times = %v, want 2", got)
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	if got := percentile(xs, 0.5); got != 30 {
		t.Errorf("median = %v", got)
	}
	if got := percentile(xs, 0.9); !near(got, 46) {
		t.Errorf("p90 = %v, want 46 (interpolated)", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v", got)
	}
	// Whole nanoseconds: distinct values read as themselves (give or take
	// half a nanosecond), ties as a fraction between them.
	distinct := []int64{100, 200, 300, 400}
	if got := percentileNs(distinct, 0.5); math.Abs(got-300) > 0.5 {
		t.Errorf("percentileNs distinct = %v", got)
	}
	ties := []int64{150, 150, 150, 150, 151, 151, 151, 151, 151, 151}
	got := percentileNs(ties, 0.5)
	if got <= 150.5 || got >= 151.5 || got == 151 {
		t.Errorf("percentileNs ties = %v, want strictly inside (150.5, 151.5)", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestTopPercentile(t *testing.T) {
	cands := []float64{0.5, 0.9, 0.99, 0.999}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0},       // not even ten beyond the median
		{20, 0.5},    // ten beyond p50, two beyond p90
		{100, 0.9},   // exactly ten beyond p90
		{999, 0.9},   // 9.99 beyond p99
		{1000, 0.99}, // exactly ten beyond p99
		{10000, 0.999},
	} {
		if got := topPercentile(c.n, cands); got != c.want {
			t.Errorf("topPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPacer(t *testing.T) {
	// 2500 events/s: ticks alternate 2 and 3 events; the clock is injected.
	p := &pacer{rate: 2500, start: 1000}
	if n, _, wait := p.next(400); n != 0 || wait != 600 {
		t.Fatalf("before the first tick: n=%d wait=%d", n, wait)
	}
	var total int
	for k := int64(0); k < 4; k++ {
		now := p.start + k*tickNs
		n, due, wait := p.next(now)
		if wait != 0 || due != now {
			t.Fatalf("tick %d: due %d wait %d at %d", k, due, wait, now)
		}
		for i := 0; i < n; i++ {
			p.sent(now+10, due)
		}
		total += n
	}
	if total != 10 || p.late != 0 || p.lateMax != 10 {
		t.Fatalf("4 ticks at 2500/s: %d events, %d late, late max %d", total, p.late, p.lateMax)
	}
	// A stall of five ticks: every missed tick still comes out on its own,
	// stamped with its own due time and no bigger than a tick, and the
	// events it delayed are counted late.
	now := p.start + 9*tickNs + 1
	for k := int64(4); k <= 9; k++ {
		n, due, wait := p.next(now)
		if wait != 0 || due != p.start+k*tickNs || n > 3 {
			t.Fatalf("catch-up tick %d: n=%d due=%d wait=%d", k, n, due, wait)
		}
		for i := 0; i < n; i++ {
			p.sent(now, due)
		}
	}
	if _, _, wait := p.next(now); wait != tickNs-1 {
		t.Fatalf("after catching up: wait %d", wait)
	}
	if p.emitted != 25 || p.late != 12 || p.lateMax != 5*tickNs+1 {
		t.Fatalf("after the stall: emitted %d late %d late max %d", p.emitted, p.late, p.lateMax)
	}
}

// input is everything the program receives for a seed: the subscription
// texts in order and the first events on the wire.
func input(t *testing.T, sp *spec, seed uint64) []byte {
	pop, err := generate(sp, seed)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, s := range pop.texts {
		b.WriteString(s)
		b.WriteByte('\n')
	}
	for seq := int64(0); seq < 500; seq++ {
		ev, _ := pop.event(seq, 0)
		b.Write(appendEvent(nil, ev))
	}
	for k := 0; k < 50; k++ {
		b.WriteString(pop.churnText(k))
	}
	return b.Bytes()
}

func TestSeedDeterminesInput(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		a, b, c := input(t, sp, 7), input(t, sp, 7), input(t, sp, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different inputs", sp.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same inputs", sp.name)
		}
	}
}

func TestOracleShortcutEqualsFullStore(t *testing.T) {
	for i := range specs {
		pop, err := generate(&specs[i], 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := pop.crossCheck(50); err != nil {
			t.Error(err)
		}
	}
	// The selective filters match about five of a bucket's eight.
	pop, _ := generate(&specs[1], 3)
	var sum int
	for seq := int64(0); seq < 2000; seq++ {
		ev, key := pop.event(seq, 0)
		sum += popcount(pop.expected(ev, key))
	}
	if avg := float64(sum) / 2000; avg < 4.5 || avg > 5.5 {
		t.Errorf("selective: %.2f matches per event, want about 5", avg)
	}
}

func TestOracleGateFires(t *testing.T) {
	pop, err := generate(&specs[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	l := &ledger{pop: pop}
	for seq := int64(0); seq < 10; seq++ {
		ev, key := pop.event(seq, 0)
		mask := pop.expected(ev, key)
		l.expect(key, mask)
		for j, sub := range pop.group[key] {
			if seq == 3 && j == 0 {
				continue // one delivery goes missing
			}
			l.deliver(int(sub), seq)
			if seq == 5 && j == 1 {
				l.deliver(int(sub), seq) // one arrives twice
			}
		}
	}
	v := l.verify(0)
	if v.attempted != 640 || v.missing != 1 || v.duplicate != 1 || v.failed != 2 || v.failedShare() == 0 {
		t.Fatalf("one missing, one duplicate: %v", v)
	}
	// A delivery to a subscription outside the event's group, one for an
	// event never published, and a publish error are failures too.
	_, key := pop.event(0, 0)
	l.deliver(int(pop.group[(key+1)%32][0]), 0)
	l.deliver(int(pop.group[0][0]), 99)
	if v := l.verify(1); v.stray != 1 || v.extra != 1 || v.failed != 5 {
		t.Fatalf("stray, unexpected and a publish error: %v", v)
	}
	clean := &ledger{pop: pop}
	ev, key := pop.event(0, 0)
	clean.expect(key, pop.expected(ev, key))
	for _, sub := range pop.group[key] {
		clean.deliver(int(sub), 0)
	}
	if v := clean.verify(0); v.failed != 0 || v.attempted != 64 {
		t.Fatalf("exact multiset: %v", v)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, start: 0, end: 100},             // root
		{id: 2, parent: 1, start: 10, end: 40},  // child
		{id: 3, parent: 1, start: 30, end: 60},  // overlaps 2: the union is [10,60)
		{id: 4, parent: 1, start: 90, end: 130}, // sticks out: clipped to [90,100)
		{id: 5, parent: 2, start: 15, end: 20},  // grandchild: only its parent's
	}
	self := selfTimes(spans)
	for id, want := range map[int32]int64{1: 40, 2: 25, 3: 30, 4: 40, 5: 5} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "delivery_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "deliveries_s", Better: "higher", Bound: 0.10}
	setup := metricDef{Name: "setup_s", Better: "lower", Bound: 0.10, floor: 0.05}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, []float64{100, 101, 99}, []float64{100, 102, 99}, verdictOK},
		{"9% slower is inside the bound", lower, []float64{100, 101, 99}, []float64{109, 110, 108}, verdictOK},
		{"12% slower", lower, []float64{100, 101, 99}, []float64{112, 113, 111}, verdictWorse},
		{"12% less throughput", higher, []float64{1000, 1010, 990}, []float64{880, 890, 870}, verdictWorse},
		{"more throughput", higher, []float64{1000, 1010, 990}, []float64{1200, 1210, 1190}, verdictOK},
		{"spread wider than the bound", lower, []float64{100, 130, 80}, []float64{101, 128, 82}, verdictUnresolved},
		{"wide spread, but every run better", lower, []float64{100, 130, 80}, []float64{60, 70, 50}, verdictOK},
		{"30% slower set-up, 3 ms: under the floor", setup, []float64{0.010, 0.010, 0.010}, []float64{0.013, 0.013, 0.013}, verdictOK},
		{"30% slower set-up, 300 ms", setup, []float64{1.0, 1.0, 1.0}, []float64{1.3, 1.3, 1.3}, verdictWorse},
	} {
		got, ratio := judge(c.d, c.a, c.b)
		if got != c.want {
			t.Errorf("%s: %s (ratio %.3f), want %s", c.name, got, ratio, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		path := dir + "/" + name
		for i := 0; i < 3; i++ {
			res := result{Correct: true, Attempted: 10, Metrics: fill(endToEnd, map[string]float64{"delivery_p50_us": p50 + float64(i), "deliveries_s": 1000, "setup_s": 0.01})}
			if err := appendResult(path, runConfig{spec: &specs[0], seed: 1}, res); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, same, slow := write("a.json", 500), write("same.json", 505), write("slow.json", 700)
	if worse, err := compareFiles(io.Discard, a, same); err != nil || worse {
		t.Errorf("A/A: worse=%v err=%v", worse, err)
	}
	var out bytes.Buffer
	if worse, err := compareFiles(&out, a, slow); err != nil || !worse {
		t.Errorf("40%% slower: worse=%v err=%v", worse, err)
	}
	if !bytes.Contains(out.Bytes(), []byte("worse")) || !bytes.Contains(out.Bytes(), []byte("of 501")) {
		t.Errorf("the row should carry the verdict and the ratio's base:\n%s", out.String())
	}
}

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCatalogueEqualsBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	strip := func(defs []metricDef) []metricDef {
		out := append([]metricDef(nil), defs...)
		for i := range out {
			out[i].floor = 0
		}
		return out
	}
	if !reflect.DeepEqual(b.EndToEnd, strip(endToEnd)) {
		t.Errorf("end_to_end differs from the catalogue:\n%v\n%v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, strip(perLayer)) {
		t.Errorf("per_layer differs from the catalogue")
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads, %d specs", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: %q / %q", i, w.Name, specs[i].name)
		}
	}
	if !reflect.DeepEqual(b.Paths, []string{"_benchmark"}) || b.RunSeconds != 28 {
		t.Errorf("paths %v run_seconds %d", b.Paths, b.RunSeconds)
	}
}

// TestEveryWorkloadEmitsExactlyTheCatalogue runs all four workloads, plain
// and traced, with phases of about 300 ms, and checks that the emitted names
// are the names of BENCHMARK.json, both ways round, and that the oracle
// passes.
func TestEveryWorkloadEmitsExactlyTheCatalogue(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the real serving stack for about a minute")
	}
	b := readBenchmarkJSON(t)
	names := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.Name)
		}
		sort.Strings(out)
		return out
	}
	for i := range specs {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{spec: &specs[i], seed: 5, seconds: 0.66, trace: traced, outDir: t.TempDir(), log: io.Discard}
			want := names(b.EndToEnd)
			if traced {
				cfg.seconds, want = 1.2, names(b.PerLayer)
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", cfg.spec.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", cfg.spec.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if got := sortedNames(res.Metrics); !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: emitted names differ from BENCHMARK.json\n got %v\nwant %v", cfg.spec.name, traced, got, want)
			}
			for name, m := range res.Metrics {
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", cfg.spec.name, name, m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(cfg.outDir + "/trace.json"); err != nil {
					t.Errorf("%s: %v", cfg.spec.name, err)
				}
			}
		}
	}
}
