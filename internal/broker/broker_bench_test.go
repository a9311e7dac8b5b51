package broker

import (
	"fmt"
	"testing"

	"noncanon/internal/boolexpr"
	"noncanon/internal/event"
	"noncanon/internal/predicate"
)

// BenchmarkPublish measures end-to-end publication (match + enqueue) with
// 1000 subscriptions of which ~10 match each event.
func BenchmarkPublish(b *testing.B) {
	br := New(Options{QueueSize: 1024})
	defer br.Close()
	for i := 0; i < 1000; i++ {
		expr := boolexpr.NewAnd(
			boolexpr.Pred("bucket", predicate.Eq, i/10),
			boolexpr.NewOr(
				boolexpr.Pred("price", predicate.Gt, i),
				boolexpr.Pred("price", predicate.Le, i-500),
			),
		)
		if _, err := br.Subscribe(expr, func(event.Event) {}); err != nil {
			b.Fatal(err)
		}
	}
	evs := make([]event.Event, 32)
	for i := range evs {
		evs[i] = event.New().Set("bucket", i%100).Set("price", 2000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := br.Publish(evs[i%len(evs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublishParallel measures the same publication path with
// GOMAXPROCS concurrent publishers. Publish holds only read locks, so on
// multi-core hardware per-op time should shrink with the core count.
func BenchmarkPublishParallel(b *testing.B) {
	br := New(Options{QueueSize: 1024})
	defer br.Close()
	for i := 0; i < 1000; i++ {
		expr := boolexpr.NewAnd(
			boolexpr.Pred("bucket", predicate.Eq, i/10),
			boolexpr.NewOr(
				boolexpr.Pred("price", predicate.Gt, i),
				boolexpr.Pred("price", predicate.Le, i-500),
			),
		)
		if _, err := br.Subscribe(expr, func(event.Event) {}); err != nil {
			b.Fatal(err)
		}
	}
	evs := make([]event.Event, 32)
	for i := range evs {
		evs[i] = event.New().Set("bucket", i%100).Set("price", 2000)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := br.Publish(evs[i%len(evs)]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkSubscribeUnsubscribe measures registration churn.
func BenchmarkSubscribeUnsubscribe(b *testing.B) {
	br := New(Options{})
	defer br.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expr := boolexpr.Pred("a", predicate.Gt, i)
		sub, err := br.Subscribe(expr, func(event.Event) {})
		if err != nil {
			b.Fatal(err)
		}
		if err := sub.Unsubscribe(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublishBatch measures the batched publication path at several
// batch sizes over the BenchmarkPublish workload; per-op time is per
// event, so the delta against BenchmarkPublish is the amortised envelope.
func BenchmarkPublishBatch(b *testing.B) {
	for _, size := range []int{1, 16, 64, 256} {
		b.Run(fmt.Sprintf("batch%d", size), func(b *testing.B) {
			br := New(Options{QueueSize: 1024})
			defer br.Close()
			for i := 0; i < 1000; i++ {
				expr := boolexpr.NewAnd(
					boolexpr.Pred("bucket", predicate.Eq, i/10),
					boolexpr.NewOr(
						boolexpr.Pred("price", predicate.Gt, i),
						boolexpr.Pred("price", predicate.Le, i-500),
					),
				)
				if _, err := br.Subscribe(expr, func(event.Event) {}); err != nil {
					b.Fatal(err)
				}
			}
			evs := make([]event.Event, size)
			for i := range evs {
				evs[i] = event.New().Set("bucket", i%100).Set("price", 2000)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i += size {
				if _, err := br.PublishBatch(evs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
