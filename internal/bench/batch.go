package bench

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"noncanon/internal/boolexpr"
	"noncanon/internal/broker"
	"noncanon/internal/event"
	"noncanon/internal/netbroker"
	"noncanon/internal/predicate"
)

// BatchPoint is one batch size of the batching sweep (experiment B1),
// measured over loopback TCP, quiet and again under subscription churn.
// Latencies are per publish call (one round trip), so a batch point's
// P50 covers Batch events.
type BatchPoint struct {
	Batch int

	// Quiet store: no concurrent Subscribe/Unsubscribe.
	EventsPerSec float64
	P50          time.Duration
	P99          time.Duration

	// Under churn: one writer loops Subscribe/Unsubscribe on the broker
	// while the same publication load runs.
	ChurnEventsPerSec float64
	ChurnP50          time.Duration
	ChurnP99          time.Duration
	ChurnOpsPerSec    float64 // sustained Subscribe+Unsubscribe ops
}

// BatchResult is the regenerated batching sweep.
type BatchResult struct {
	GOMAXPROCS int
	Subs       int
	Events     int // events published per measurement
	Points     []BatchPoint
}

// batchSizes returns the swept batch sizes. 1 is the unbatched baseline
// (the plain MsgPublish path); the rest amortise the round trip.
func batchSizes() []int { return []int{1, 4, 16, 64, 256} }

// batchSub builds a moderately selective subscription: one bucket
// equality plus a price band, so ~1/bucketCount of the store matches an
// event and delivery work stays proportional instead of all-pairs.
func batchSub(i int) boolexpr.Expr {
	return boolexpr.NewAnd(
		boolexpr.Pred("bucket", predicate.Eq, int64(i/8)),
		boolexpr.NewOr(
			boolexpr.Pred("price", predicate.Gt, int64(i%1000)),
			boolexpr.Pred("price", predicate.Le, int64(i%1000)-500),
		),
	)
}

// batchEvent draws an event for the bucketed workload.
func batchEvent(rng *rand.Rand, buckets int) event.Event {
	return event.New().
		Set("bucket", int64(rng.Intn(buckets))).
		Set("price", int64(rng.Intn(1000)))
}

// MeasureBatch measures publish throughput and per-call latency against
// the batch size over a real loopback TCP connection — the pipeline the
// batching work targets: wire frame, server dispatch, broker lock, engine
// fan-out and per-subscriber enqueue, all amortised per batch.
//
// The same event sequence (same seed) is replayed at every batch size, so
// points differ only in how the events are framed.
func MeasureBatch(cfg Config) (BatchResult, error) {
	cfg = cfg.withDefaults()
	subs := scaleCount(100_000, cfg.Scale)
	events := 256 * cfg.Trials

	srv := netbroker.NewServer(netbroker.ServerOptions{
		Broker: broker.Options{QueueSize: 1024},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return BatchResult{}, fmt.Errorf("bench: listen: %w", err)
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		srv.Serve(ln)
	}()
	defer func() {
		srv.Close()
		<-serveDone
	}()

	for i := 0; i < subs; i++ {
		if _, err := srv.Broker().Subscribe(batchSub(i), func(event.Event) {}); err != nil {
			return BatchResult{}, fmt.Errorf("bench: batch subscribe %d: %w", i, err)
		}
	}

	cli, err := netbroker.Dial(ln.Addr().String())
	if err != nil {
		return BatchResult{}, fmt.Errorf("bench: dial: %w", err)
	}
	defer cli.Close()

	res := BatchResult{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Subs:       subs,
		Events:     events,
	}
	buckets := subs/8 + 1
	for _, size := range batchSizes() {
		pt := BatchPoint{Batch: size}
		pt.EventsPerSec, pt.P50, pt.P99, err = publishLatency(cli, cfg.Seed, events, size, buckets)
		if err != nil {
			return BatchResult{}, err
		}

		churn := newBrokerChurner(srv.Broker(), subs)
		pt.ChurnEventsPerSec, pt.ChurnP50, pt.ChurnP99, err = publishLatency(cli, cfg.Seed, events, size, buckets)
		ops := churn.stop()
		if err != nil {
			return BatchResult{}, err
		}
		pt.ChurnOpsPerSec = ops

		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// publishLatency publishes the deterministic event sequence in calls of
// `size` events and returns aggregate throughput with p50/p99 per-call
// latencies. One unmeasured warmup call precedes the measurement.
func publishLatency(cli *netbroker.Client, seed int64, events, size, buckets int) (evPerSec float64, p50, p99 time.Duration, err error) {
	rng := rand.New(rand.NewSource(seed + 11))
	evs := make([]event.Event, events)
	for i := range evs {
		evs[i] = batchEvent(rng, buckets)
	}

	// Warmup outside the measurement window.
	if size == 1 {
		if _, err := cli.Publish(evs[0]); err != nil {
			return 0, 0, 0, fmt.Errorf("bench: warmup publish: %w", err)
		}
	} else if _, err := cli.PublishBatch(evs[:size]); err != nil {
		return 0, 0, 0, fmt.Errorf("bench: warmup batch: %w", err)
	}

	durs := make([]time.Duration, 0, (events+size-1)/size)
	t0 := time.Now()
	for off := 0; off < events; off += size {
		end := off + size
		if end > events {
			end = events
		}
		c0 := time.Now()
		if size == 1 {
			_, err = cli.Publish(evs[off])
		} else {
			_, err = cli.PublishBatch(evs[off:end])
		}
		if err != nil {
			return 0, 0, 0, fmt.Errorf("bench: publish (batch %d): %w", size, err)
		}
		durs = append(durs, time.Since(c0))
	}
	total := time.Since(t0)
	if total <= 0 {
		total = time.Nanosecond
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return float64(events) / total.Seconds(), percentile(durs, 50), percentile(durs, 99), nil
}

// brokerChurner drives one goroutine of maximal Subscribe/Unsubscribe
// load against the embedded broker.
type brokerChurner struct {
	ops  atomic.Int64
	quit chan struct{}
	done chan struct{}
	t0   time.Time
}

func newBrokerChurner(br *broker.Broker, base int) *brokerChurner {
	c := &brokerChurner{quit: make(chan struct{}), done: make(chan struct{}), t0: time.Now()}
	noop := func(event.Event) {}
	// One synchronous cycle guarantees measurable churn even when the
	// scheduler starves the background writer (tiny windows, 1 vCPU).
	if sub, err := br.Subscribe(batchSub(base), noop); err == nil {
		if err := sub.Unsubscribe(); err == nil {
			c.ops.Add(2)
		}
	}
	go func() {
		defer close(c.done)
		for i := 1; ; i++ {
			select {
			case <-c.quit:
				return
			default:
			}
			sub, err := br.Subscribe(batchSub(base+i), noop)
			if err != nil {
				return
			}
			if err := sub.Unsubscribe(); err != nil {
				return
			}
			c.ops.Add(2)
			// Yield between cycles: a publish round trip needs several
			// goroutine wakeups (client writer, server conn, broker), and a
			// spinning writer on a small box starves them for whole
			// preemption slices — the experiment measures lock and fan-out
			// interference, not scheduler monopolisation.
			runtime.Gosched()
		}
	}()
	return c
}

// stop ends the churn and returns its sustained operation rate.
func (c *brokerChurner) stop() float64 {
	close(c.quit)
	<-c.done
	dur := time.Since(c.t0).Seconds()
	if dur <= 0 {
		return 0
	}
	return float64(c.ops.Load()) / dur
}

// RunBatch regenerates the batching sweep and prints its series.
func RunBatch(cfg Config) error {
	cfg = cfg.withDefaults()
	res, err := MeasureBatch(cfg)
	if err != nil {
		return err
	}
	w := cfg.Out
	if cfg.CSV {
		fmt.Fprintf(w, "batch,quiet_ev_s,quiet_p50_s,quiet_p99_s,churn_ev_s,churn_p50_s,churn_p99_s,churn_ops_s\n")
		for _, p := range res.Points {
			fmt.Fprintf(w, "%d,%.1f,%.9f,%.9f,%.1f,%.9f,%.9f,%.1f\n",
				p.Batch, p.EventsPerSec, p.P50.Seconds(), p.P99.Seconds(),
				p.ChurnEventsPerSec, p.ChurnP50.Seconds(), p.ChurnP99.Seconds(), p.ChurnOpsPerSec)
		}
		return nil
	}
	fmt.Fprintf(w, "B1: batched publish vs batch size over loopback TCP (GOMAXPROCS %d)\n", res.GOMAXPROCS)
	fmt.Fprintf(w, "workload: %d bucketed subscriptions, %d events per point, one publisher connection\n", res.Subs, res.Events)
	fmt.Fprintf(w, "latencies are per publish call (a call carries `batch` events)\n\n")
	fmt.Fprintf(w, "%-8s %-12s %-10s %-10s | %-12s %-10s %-10s %-12s\n",
		"batch", "quiet ev/s", "p50", "p99", "churn ev/s", "p50", "p99", "churn ops/s")
	for _, p := range res.Points {
		fmt.Fprintf(w, "%-8d %-12.1f %-10s %-10s | %-12.1f %-10s %-10s %-12.1f\n",
			p.Batch, p.EventsPerSec, fmtDur(p.P50), fmtDur(p.P99),
			p.ChurnEventsPerSec, fmtDur(p.ChurnP50), fmtDur(p.ChurnP99), p.ChurnOpsPerSec)
	}
	fmt.Fprintln(w)
	return nil
}
