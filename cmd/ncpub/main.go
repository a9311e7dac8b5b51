// Command ncpub publishes events to a broker.
//
// Attributes are key=value pairs; values parse as int, float, bool or
// string (quote-free).
//
// Usage:
//
//	ncpub -addr localhost:7070 price=150 sym=ACME hot=true ratio=2.5
//	ncpub -count 100 -interval 10ms seq=auto price=42
//	ncpub -count 1000 -batch 64 seq=auto price=42
//
// With seq=auto an incrementing sequence number is attached per event.
// With -batch N events go out in batches of N over one wire frame each,
// amortising the per-event round trip; -interval then delays between
// batches.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"noncanon/internal/event"
	"noncanon/internal/netbroker"
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:7070", "broker address")
		count    = flag.Int("count", 1, "number of events to publish")
		interval = flag.Duration("interval", 0, "delay between events (with -batch: between batches)")
		batch    = flag.Int("batch", 1, "events per published batch (1 = unbatched)")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: ncpub [flags] key=value [key=value ...]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := run(os.Stdout, *addr, flag.Args(), *count, *interval, *batch); err != nil {
		fmt.Fprintln(os.Stderr, "ncpub:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, addr string, pairs []string, count int, interval time.Duration, batch int) error {
	if batch < 1 {
		batch = 1
	}
	cli, err := netbroker.Dial(addr)
	if err != nil {
		return err
	}
	defer cli.Close()

	if batch == 1 {
		for i := 0; i < count; i++ {
			ev, err := buildEvent(pairs, i)
			if err != nil {
				return err
			}
			n, err := cli.Publish(ev)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "published %s -> %d subscription(s)\n", ev, n)
			if interval > 0 && i < count-1 {
				time.Sleep(interval)
			}
		}
		return nil
	}

	for i := 0; i < count; i += batch {
		n := batch
		if i+n > count {
			n = count - i
		}
		evs := make([]event.Event, n)
		for j := range evs {
			ev, err := buildEvent(pairs, i+j)
			if err != nil {
				return err
			}
			evs[j] = ev
		}
		counts, err := cli.PublishBatch(evs)
		if err != nil {
			return err
		}
		total := 0
		for j, ev := range evs {
			fmt.Fprintf(out, "published %s -> %d subscription(s)\n", ev, counts[j])
			total += counts[j]
		}
		fmt.Fprintf(out, "batch of %d -> %d match(es)\n", n, total)
		if interval > 0 && i+batch < count {
			time.Sleep(interval)
		}
	}
	return nil
}

func buildEvent(pairs []string, seq int) (event.Event, error) {
	ev := event.New()
	for _, p := range pairs {
		k, v, ok := strings.Cut(p, "=")
		if !ok || k == "" {
			return event.Event{}, fmt.Errorf("bad attribute %q (want key=value)", p)
		}
		ev = ev.Set(k, parseValue(v, seq))
	}
	return ev, nil
}

// parseValue guesses the most specific type: auto-sequence, int, float,
// bool, then string.
func parseValue(s string, seq int) any {
	if s == "auto" {
		return seq
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return n
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f
	}
	if b, err := strconv.ParseBool(s); err == nil {
		return b
	}
	return s
}
