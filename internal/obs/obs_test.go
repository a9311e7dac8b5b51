package obs

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrentTotals hammers shared instruments from N
// goroutines and checks the final snapshot equals the expected totals —
// the registry's core contract, run under -race in CI.
func TestRegistryConcurrentTotals(t *testing.T) {
	r := NewRegistry()
	const (
		goroutines = 16
		perG       = 5000
	)
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Mix handle reuse with name lookup: both must hit the same
			// instrument.
			cc := r.Counter("c")
			for j := 0; j < perG; j++ {
				c.Inc()
				cc.Add(2)
				g.Add(1)
				h.Observe(time.Duration(j) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got, want := c.Value(), uint64(goroutines*perG*3); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got, want := g.Value(), int64(goroutines*perG); got != want {
		t.Errorf("gauge = %d, want %d", got, want)
	}
	hs := h.Snapshot()
	if got, want := hs.Count, uint64(goroutines*perG); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
	var bucketSum uint64
	for _, b := range hs.Buckets {
		bucketSum += b
	}
	if bucketSum != hs.Count {
		t.Errorf("bucket sum %d != count %d", bucketSum, hs.Count)
	}
	// perG observations of 0..perG-1 µs per goroutine.
	wantSum := time.Duration(goroutines) * time.Duration(perG*(perG-1)/2) * time.Microsecond
	if hs.Sum != wantSum {
		t.Errorf("histogram sum = %v, want %v", hs.Sum, wantSum)
	}
}

func TestRegistryGetOrCreateSharing(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Error("same name returned distinct counters")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
	defer func() {
		if recover() == nil {
			t.Error("kind clash did not panic")
		}
	}()
	r.Gauge("x")
}

func TestRegistrySnapshotAndGet(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(7)
	r.Gauge("b").Set(-3)
	r.Histogram("c").Observe(time.Millisecond)
	r.CounterFunc("d", func() uint64 { return 11 })
	r.GaugeFunc("e", func() int64 { return -5 })

	snap := r.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("snapshot len = %d, want 5", len(snap))
	}
	// Registration order preserved in the returned slice.
	for i, want := range []string{"a", "b", "c", "d", "e"} {
		if snap[i].Name != want {
			t.Errorf("snap[%d].Name = %q, want %q", i, snap[i].Name, want)
		}
	}
	if snap[0].Value != 7 || snap[1].GaugeValue != -3 || snap[2].Hist.Count != 1 ||
		snap[3].Value != 11 || snap[4].GaugeValue != -5 {
		t.Errorf("snapshot values wrong: %+v", snap)
	}

	s, ok := r.Get("d")
	if !ok || s.Value != 11 {
		t.Errorf("Get(d) = %+v, %v", s, ok)
	}
	if _, ok := r.Get("nope"); ok {
		t.Error("Get(nope) reported ok")
	}

	r.Unregister("b")
	r.Unregister("nope") // no-op
	if r.Len() != 4 {
		t.Errorf("Len after unregister = %d, want 4", r.Len())
	}
	if _, ok := r.Get("b"); ok {
		t.Error("unregistered instrument still visible")
	}
}

func TestCounterFuncReplace(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("f", func() uint64 { return 1 })
	r.CounterFunc("f", func() uint64 { return 2 })
	if s, _ := r.Get("f"); s.Value != 2 {
		t.Errorf("replaced CounterFunc = %d, want 2", s.Value)
	}
	r.GaugeFunc("g", func() int64 { return 1 })
	r.GaugeFunc("g", func() int64 { return -9 })
	if s, _ := r.Get("g"); s.GaugeValue != -9 {
		t.Errorf("replaced GaugeFunc = %d, want -9", s.GaugeValue)
	}
}

// TestHistogramBucketBoundaries pins the bucket mapping at the exact
// powers of two: a value equal to a bucket's upper bound lands in the
// next bucket (bounds are exclusive above).
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      time.Duration
		bucket int
	}{
		{0, 0},
		{-time.Second, 0}, // clock skew degrades gracefully
		{1023, 0},
		{1024, 1},
		{2047, 1},
		{2048, 2},
		{4096, 3},
		{time.Duration(1) << 31, 22},
		{time.Duration(1)<<32 - 1, 22},
		{time.Duration(1) << 32, 23}, // overflow bucket floor
		{time.Hour, 23},
	}
	for _, c := range cases {
		h := newHistogram()
		h.Observe(c.v)
		s := h.Snapshot()
		got := -1
		for i, b := range s.Buckets {
			if b == 1 {
				got = i
				break
			}
		}
		if got != c.bucket {
			t.Errorf("Observe(%d ns) landed in bucket %d, want %d", int64(c.v), got, c.bucket)
		}
	}
	if got := BucketBound(0); got != 1024 {
		t.Errorf("BucketBound(0) = %d, want 1024", got)
	}
	if got := BucketBound(NumBuckets - 1); got != time.Duration(1<<63-1) {
		t.Errorf("BucketBound(last) = %d, want max", got)
	}
}

func TestHistogramQuantileAndMean(t *testing.T) {
	var empty HistogramSnapshot
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Error("empty histogram quantile/mean not 0")
	}

	h := newHistogram()
	// 100 observations spread over two buckets: 50 at ~1.5µs (bucket 1),
	// 50 at ~3µs (bucket 2).
	for i := 0; i < 50; i++ {
		h.Observe(1536)
		h.Observe(3072)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	// p25 interpolates inside bucket 1 [1024,2048); p99 inside bucket 2.
	if q := s.Quantile(0.25); q < 1024 || q >= 2048 {
		t.Errorf("p25 = %v, want within bucket 1", q)
	}
	if q := s.Quantile(0.99); q < 2048 || q >= 4096 {
		t.Errorf("p99 = %v, want within bucket 2", q)
	}
	if q := s.Quantile(-1); q != 0 && q >= 2048 {
		t.Errorf("clamped q<0 = %v", q)
	}
	if q := s.Quantile(2); q < 2048 {
		t.Errorf("clamped q>1 = %v, want in top bucket", q)
	}
	wantMean := time.Duration((1536*50 + 3072*50) / 100)
	if m := s.Mean(); m != wantMean {
		t.Errorf("mean = %v, want %v", m, wantMean)
	}

	// Mass in the overflow bucket reports its floor.
	ho := newHistogram()
	ho.Observe(time.Hour)
	if q := ho.Snapshot().Quantile(0.99); q != time.Duration(1)<<32 {
		t.Errorf("overflow-bucket quantile = %v, want 2^32 ns", q)
	}
}

func TestTraceRingWrap(t *testing.T) {
	ring := NewTraceRing(3)
	if got := ring.Recent(); len(got) != 0 {
		t.Fatalf("fresh ring has %d records", len(got))
	}
	for i := 1; i <= 5; i++ {
		ring.Record(TraceRecord{TraceID: uint64(i)})
	}
	got := ring.Recent()
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	for i, want := range []uint64{3, 4, 5} {
		if got[i].TraceID != want {
			t.Errorf("Recent[%d] = %d, want %d (oldest first)", i, got[i].TraceID, want)
		}
	}
	if ring.Total() != 5 {
		t.Errorf("Total = %d, want 5", ring.Total())
	}
	// Capacity 0 clamps to 1: the ring keeps the newest record.
	one := NewTraceRing(0)
	for i := 1; i <= 3; i++ {
		one.Record(TraceRecord{TraceID: uint64(i)})
	}
	if got := one.Recent(); len(got) != 1 || got[0].TraceID != 3 {
		t.Errorf("capacity-0 ring holds %+v, want only record 3", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("broker_published_total").Add(42)
	r.Gauge(`netoverlay_peer_queue_bytes{peer="2"}`).Set(128)
	r.Gauge(`netoverlay_peer_queue_bytes{peer="3"}`).Set(256)
	h := r.Histogram("broker_publish_latency_seconds")
	h.Observe(1536) // bucket 1
	h.Observe(time.Hour)

	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE broker_published_total counter\n",
		"broker_published_total 42\n",
		"# TYPE netoverlay_peer_queue_bytes gauge\n",
		`netoverlay_peer_queue_bytes{peer="2"} 128` + "\n",
		`netoverlay_peer_queue_bytes{peer="3"} 256` + "\n",
		"# TYPE broker_publish_latency_seconds histogram\n",
		`broker_publish_latency_seconds_bucket{le="+Inf"} 2` + "\n",
		"broker_publish_latency_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q in:\n%s", want, out)
		}
	}
	// One TYPE line per family even with two labeled gauges.
	if n := strings.Count(out, "# TYPE netoverlay_peer_queue_bytes"); n != 1 {
		t.Errorf("family TYPE line appears %d times", n)
	}
	// Cumulative le buckets: bucket 1 upper bound 2048ns = 2.048e-06s holds 1.
	if !strings.Contains(out, `le="2.048e-06"} 1`) {
		t.Errorf("cumulative bucket line missing in:\n%s", out)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Inc()
	r.Gauge("a").Set(-1)
	r.Histogram("c").Observe(time.Millisecond)
	var b strings.Builder
	if err := WriteJSON(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "{") || !strings.HasSuffix(out, "}\n") {
		t.Errorf("not a JSON object: %q", out)
	}
	// Sorted keys: a before b before c.
	if !(strings.Index(out, `"a"`) < strings.Index(out, `"b"`) &&
		strings.Index(out, `"b"`) < strings.Index(out, `"c"`)) {
		t.Errorf("keys not sorted in %q", out)
	}
	for _, want := range []string{`"a": -1`, `"b": 1`, `"count": 1`, `"p99_ns"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON output missing %q in %q", want, out)
		}
	}
}

func TestEndpointServe(t *testing.T) {
	r := NewRegistry()
	r.Counter("up").Inc()
	ring := NewTraceRing(8)
	ring.Record(TraceRecord{TraceID: 9, Node: "b1", Hops: 1, LatencyNanos: 500})

	ln, err := Endpoint{Registry: r, Ring: ring}.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + ln.Addr().String() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if out := get("/metrics"); !strings.Contains(out, "up 1") {
		t.Errorf("/metrics missing counter: %q", out)
	}
	if out := get("/vars"); !strings.Contains(out, `"up": 1`) {
		t.Errorf("/vars missing counter: %q", out)
	}
	if out := get("/traces"); !strings.Contains(out, `"trace_id": 9`) || !strings.Contains(out, `"node": "b1"`) {
		t.Errorf("/traces missing record: %q", out)
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Error("pprof cmdline empty")
	}

	// The registry-only helper serves an empty trace list.
	ln2, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer ln2.Close()
	resp, err := http.Get("http://" + ln2.Addr().String() + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := strings.TrimSpace(string(body)); got != "[\n]" {
		t.Errorf("empty /traces = %q", got)
	}
}
