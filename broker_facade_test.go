package noncanon_test

import (
	"sync/atomic"
	"testing"
	"time"

	"noncanon"
)

func TestBrokerHandler(t *testing.T) {
	br := noncanon.NewBroker()
	defer br.Close()

	var got atomic.Int64
	sub, err := br.Subscribe(`price > 100`, func(ev noncanon.Event) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if n, err := br.Publish(noncanon.NewEvent().Set("price", 150)); err != nil || n != 1 {
		t.Fatalf("Publish = %d, %v", n, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got.Load() != 1 {
		t.Fatalf("delivered = %d", got.Load())
	}
	if err := sub.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	if n, _ := br.Publish(noncanon.NewEvent().Set("price", 150)); n != 0 {
		t.Errorf("matched %d after unsubscribe", n)
	}
}

func TestBrokerChannel(t *testing.T) {
	br := noncanon.NewBroker(noncanon.WithQueueSize(8))
	defer br.Close()

	_, ch, err := br.SubscribeChan(`sym = "A" and not halted = true`)
	if err != nil {
		t.Fatal(err)
	}
	br.Publish(noncanon.NewEvent().Set("sym", "A").Set("halted", false))
	br.Publish(noncanon.NewEvent().Set("sym", "A").Set("halted", true))
	select {
	case ev := <-ch:
		if v, _ := ev.Get("halted"); v.Bool() {
			t.Errorf("halted event delivered: %s", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no event")
	}
	st := br.Stats()
	if st.Published != 2 || st.Subscriptions != 1 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestBrokerBadSubscription(t *testing.T) {
	br := noncanon.NewBroker()
	defer br.Close()
	if _, err := br.Subscribe(`nope =`, func(noncanon.Event) {}); err == nil {
		t.Error("bad subscription accepted")
	}
	if _, _, err := br.SubscribeChan(`(`); err == nil {
		t.Error("bad channel subscription accepted")
	}
}

func TestBrokerSubscribeExpr(t *testing.T) {
	br := noncanon.NewBroker()
	defer br.Close()
	var got atomic.Int64
	if _, err := br.SubscribeExpr(noncanon.MustParse(`a = 1`), func(noncanon.Event) { got.Add(1) }); err != nil {
		t.Fatal(err)
	}
	br.Publish(noncanon.NewEvent().Set("a", 1))
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got.Load() != 1 {
		t.Fatal("expr subscription not delivered")
	}
}

func TestBrokerPublishBatch(t *testing.T) {
	br := noncanon.NewBroker(noncanon.WithQueueSize(64))
	defer br.Close()

	var got atomic.Int64
	if _, err := br.Subscribe(`price > 100`, func(noncanon.Event) { got.Add(1) }); err != nil {
		t.Fatal(err)
	}
	counts, err := br.PublishBatch([]noncanon.Event{
		noncanon.NewEvent().Set("price", 150),
		noncanon.NewEvent().Set("price", 50),
		noncanon.NewEvent().Set("price", 200),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 3 || counts[0] != 1 || counts[1] != 0 || counts[2] != 1 {
		t.Fatalf("counts = %v, want [1 0 1]", counts)
	}
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() != 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got.Load() != 2 {
		t.Fatalf("delivered = %d, want 2", got.Load())
	}
	if st := br.Stats(); st.Published != 3 || st.Batches != 1 {
		t.Errorf("Stats = %+v, want Published 3 Batches 1", st)
	}
}

func TestBrokerAggregation(t *testing.T) {
	br := noncanon.NewBroker(noncanon.WithBrokerAggregation())
	defer br.Close()

	var got atomic.Int64
	subs := make([]*noncanon.BrokerSubscription, 0, 6)
	for i := 0; i < 6; i++ {
		// Textual variants of the same filter must intern onto one engine
		// entry (commuted conjuncts, 3 vs 3.0).
		text := `price < 10 and cat = 3`
		if i%2 == 1 {
			text = `cat = 3.0 and price < 10`
		}
		s, err := br.Subscribe(text, func(noncanon.Event) { got.Add(1) })
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	st := br.Stats()
	if st.Subscriptions != 6 || st.DistinctFilters != 1 || st.AggregatedSubscribers != 5 {
		t.Fatalf("stats = %+v, want 6 subscribers over 1 distinct filter (5 aggregated)", st)
	}
	if n, err := br.Publish(noncanon.NewEvent().Set("price", 5).Set("cat", 3)); err != nil || n != 6 {
		t.Fatalf("Publish = %d, %v; want 6", n, err)
	}
	for _, s := range subs[:5] {
		if err := s.Unsubscribe(); err != nil {
			t.Fatal(err)
		}
	}
	if st := br.Stats(); st.Subscriptions != 1 || st.DistinctFilters != 1 {
		t.Fatalf("after partial unsubscribe: %+v", st)
	}
	if err := subs[5].Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	if st := br.Stats(); st.Subscriptions != 0 || st.DistinctFilters != 0 {
		t.Fatalf("after full unsubscribe: %+v", st)
	}
}

func TestBrokerDAGAggregation(t *testing.T) {
	br := noncanon.NewBroker(noncanon.WithBrokerAggregation(), noncanon.WithQueueSize(16))
	defer br.Close()

	var got atomic.Int64
	// A nested covering chain: the widest band provably covers the others,
	// so only it occupies an engine entry.
	texts := []string{
		`cat = 3 and price < 10`,
		`cat = 3 and price < 100`,
		`cat = 3 and price < 1000`,
	}
	subs := make([]*noncanon.BrokerSubscription, 0, len(texts))
	for _, text := range texts {
		s, err := br.Subscribe(text, func(noncanon.Event) { got.Add(1) })
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	st := br.Stats()
	if st.Subscriptions != 3 || st.DistinctFilters != 3 || st.FrontierFilters != 1 || st.CoveredSubscribers != 2 {
		t.Fatalf("stats = %+v, want 3 distinct filters on a 1-entry frontier (2 covered)", st)
	}
	// price 50 fulfils the two wider bands but not the narrowest: the
	// frontier walk must re-evaluate covered filters, not blanket-deliver.
	if n, err := br.Publish(noncanon.NewEvent().Set("cat", 3).Set("price", 50)); err != nil || n != 2 {
		t.Fatalf("Publish = %d, %v; want 2", n, err)
	}
	// Dropping the frontier filter promotes the mid band; matching must not
	// gap.
	if err := subs[2].Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	if st := br.Stats(); st.Subscriptions != 2 || st.FrontierFilters != 1 || st.CoveredSubscribers != 1 {
		t.Fatalf("after frontier unsubscribe: %+v", st)
	}
	if n, err := br.Publish(noncanon.NewEvent().Set("cat", 3).Set("price", 50)); err != nil || n != 1 {
		t.Fatalf("Publish after promotion = %d, %v; want 1", n, err)
	}
}
