// Overlaydemo: a 13-broker overlay routing events to the subscribers'
// brokers only — the peer-to-peer deployment the paper motivates for
// resource-constrained filtering nodes. The brokers are federation brokers
// linked in memory (internal/netoverlay's Network); this example doubles as
// its usage reference.
package main

import (
	"fmt"
	"sync/atomic"

	"noncanon/internal/event"
	"noncanon/internal/netoverlay"
	"noncanon/internal/sublang"
)

const brokers = 13

func main() {
	// A binary tree of 13 brokers: 0 is the root, 1..2 its children, etc.
	nw, err := netoverlay.NewNetwork(brokers, netoverlay.TreeEdges(brokers, 2), netoverlay.Options{})
	if err != nil {
		panic(err)
	}
	defer nw.Close()

	// Regional subscribers at the leaves.
	var eu, us atomic.Int64
	mustSubscribe(nw.Node(7), `region = "eu" and severity >= 3`, func(event.Event) { eu.Add(1) })
	mustSubscribe(nw.Node(12), `region = "us" and (severity >= 3 or service = "payments")`, func(event.Event) { us.Add(1) })
	nw.Flush()

	// Alerts published at the root flow only toward interested leaves.
	alerts := []event.Event{
		event.New().Set("region", "eu").Set("severity", 5).Set("service", "db"),
		event.New().Set("region", "us").Set("severity", 1).Set("service", "payments"),
		event.New().Set("region", "us").Set("severity", 1).Set("service", "web"),
		event.New().Set("region", "apac").Set("severity", 5).Set("service", "db"),
	}
	for _, ev := range alerts {
		if err := nw.Node(0).Publish(ev); err != nil {
			panic(err)
		}
	}
	nw.Flush()

	st := nw.Stats()
	fmt.Printf("published       %d alerts at the root broker\n", st.Published)
	fmt.Printf("eu deliveries   %d (expected 1)\n", eu.Load())
	fmt.Printf("us deliveries   %d (expected 1)\n", us.Load())
	fmt.Printf("link crossings  %d — a broadcast would have needed %d\n",
		st.Forwarded, len(alerts)*(brokers-1))
}

func mustSubscribe(b *netoverlay.Broker, sub string, h netoverlay.Handler) {
	expr, err := sublang.Parse(sub)
	if err != nil {
		panic(err)
	}
	if _, err := b.Subscribe(expr, h); err != nil {
		panic(err)
	}
}
