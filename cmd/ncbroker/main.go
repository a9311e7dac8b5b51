// Command ncbroker runs a TCP publish/subscribe broker speaking the wire
// protocol (see internal/wire). Clients connect with ncsub and ncpub.
// Publications from different connections are matched concurrently by the
// broker's non-canonical engine, which the broker builds itself: commands
// never configure an engine.
//
// With -aggregate, subscribers share engine entries (see
// internal/cover/dag): identical filters intern to one entry, only the
// covering frontier occupies engine entries, covered filters attach
// beneath their coverers and are re-evaluated during delivery, and the
// shutdown report shows the distinct and frontier filter counts and how
// many subscribers rode along covered.
//
// Usage:
//
//	ncbroker -addr :7070
//	ncbroker -addr :7070 -aggregate
//	ncbroker -addr :7070 -metrics-addr 127.0.0.1:9090
//
// With -metrics-addr, an operational endpoint serves Prometheus text on
// /metrics, JSON on /vars and pprof on /debug/pprof/ (see internal/obs).
// Turning it on also starts the broker's latency clock, so the match and
// publish latency histograms fill.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"

	"noncanon/internal/broker"
	"noncanon/internal/netbroker"
	"noncanon/internal/obs"
)

// config is the parsed command line.
type config struct {
	addr        string
	metricsAddr string
	opts        netbroker.ServerOptions
}

// parseArgs parses flags into a server configuration; usage and errors go
// to errOut.
func parseArgs(args []string, errOut io.Writer) (config, error) {
	fs := flag.NewFlagSet("ncbroker", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		addr      = fs.String("addr", ":7070", "listen address")
		queue     = fs.Int("queue", broker.DefaultQueueSize, "undelivered events held per subscription: a connection with n subscriptions buffers up to n times this many before dropping")
		aggregate = fs.Bool("aggregate", false, "share engine entries: one per covering-frontier filter, identical and covered filters attach beneath it (see internal/cover/dag)")
		retry     = fs.Duration("retry-after", 0, "reply Busy with this retry hint instead of accepting publishes while most subscription queues are backed up (0 disables)")
		metrics   = fs.String("metrics-addr", "", "serve /metrics, /vars and /debug/pprof on this address (also enables latency histograms)")
		quiet     = fs.Bool("quiet", false, "suppress connection diagnostics")
	)
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(errOut, "ncbroker: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return config{}, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	cfg := config{
		addr:        *addr,
		metricsAddr: *metrics,
		opts: netbroker.ServerOptions{
			RetryAfter: *retry,
			Broker: broker.Options{
				QueueSize: *queue,
				Aggregate: *aggregate,
			},
		},
	}
	if !*quiet {
		cfg.opts.Logf = log.Printf
	}
	return cfg, nil
}

func main() {
	cfg, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}
	if cfg.metricsAddr != "" {
		reg := obs.NewRegistry()
		cfg.opts.Broker.Metrics = reg
		ln, err := obs.Serve(cfg.metricsAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ncbroker: metrics:", err)
			os.Exit(1)
		}
		defer ln.Close()
		log.Printf("ncbroker: metrics on http://%s/metrics", ln.Addr())
	}
	srv := netbroker.NewServer(cfg.opts)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Println("ncbroker: shutting down")
		logStats(srv.Broker().Stats())
		if err := srv.Close(); err != nil {
			log.Printf("ncbroker: close: %v", err)
		}
	}()

	log.Printf("ncbroker: listening on %s", cfg.addr)
	if err := srv.ListenAndServe(cfg.addr); err != nil && err != netbroker.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "ncbroker:", err)
		os.Exit(1)
	}
}

// logStats reports final broker activity, making aggregation observable:
// DistinctFilters counts distinct live canonical filters,
// AggregatedSubscribers the subscribes deduplicated onto an existing
// filter, FrontierFilters the engine entry count (equal to
// DistinctFilters unless covering shrinks the frontier below it),
// and CoveredSubscribers the subscribers attached beneath a covering
// filter with no engine entry of their own.
func logStats(st broker.Stats) {
	log.Printf("ncbroker: stats: subscriptions=%d distinct_filters=%d frontier_filters=%d aggregated_subscribers=%d covered_subscribers=%d published=%d delivered=%d dropped=%d",
		st.Subscriptions, st.DistinctFilters, st.FrontierFilters, st.AggregatedSubscribers, st.CoveredSubscribers,
		st.Published, st.Delivered, st.Dropped)
}
