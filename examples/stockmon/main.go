// Stockmon: a stock-quote monitoring broker — the workload the paper's
// introduction motivates. Traders register rich Boolean interest profiles;
// a simulated feed publishes quotes; matching deliveries stream to each
// trader asynchronously.
package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"noncanon"
)

type trader struct {
	name     string
	sub      string
	received atomic.Int64
}

func main() {
	// The feed below publishes in a tight burst, so give each trader a
	// queue deep enough to absorb it; the broker never blocks publishers —
	// overflow would be dropped and counted instead.
	br := noncanon.NewBroker(noncanon.WithQueueSize(16_384))
	defer br.Close()

	traders := []*trader{
		{name: "breakout", sub: `sym = "ACME" and (price < 20 or price > 90)`},
		{name: "value", sub: `(sym = "GLOBEX" or sym = "INITECH") and price <= 35 and volume > 5000`},
		{name: "momentum", sub: `change >= 2.5 and volume > 8000 and not sym = "UMBRELLA"`},
		{name: "everything-acme", sub: `sym = "ACME"`},
		{name: "panic", sub: `change <= -4.0 or (price < 10 and volume > 9000)`},
	}
	for _, tr := range traders {
		tr := tr
		if _, err := br.Subscribe(tr.sub, func(ev noncanon.Event) {
			tr.received.Add(1)
		}); err != nil {
			panic(err)
		}
	}

	// Simulated quote feed.
	rng := rand.New(rand.NewSource(42))
	symbols := []string{"ACME", "GLOBEX", "INITECH", "UMBRELLA"}
	const quotes = 10_000
	matchedTotal := 0
	for i := 0; i < quotes; i++ {
		ev := noncanon.NewEvent().
			Set("sym", symbols[rng.Intn(len(symbols))]).
			Set("price", rng.Intn(100)).
			Set("volume", rng.Intn(10_000)).
			Set("change", rng.NormFloat64()*2)
		n, err := br.Publish(ev)
		if err != nil {
			panic(err)
		}
		matchedTotal += n
	}
	br.Close() // drain deliveries before reading counters

	fmt.Printf("published %d quotes, %d subscription matches\n\n", quotes, matchedTotal)
	for _, tr := range traders {
		fmt.Printf("%-16s %6d quotes   (%s)\n", tr.name, tr.received.Load(), tr.sub)
	}
	st := br.Stats()
	fmt.Printf("\nbroker: delivered=%d dropped=%d\n", st.Delivered, st.Dropped)
}
