package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"noncanon/internal/broker"
)

func TestParseArgsDefaults(t *testing.T) {
	var errOut bytes.Buffer
	cfg, err := parseArgs(nil, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != ":7070" {
		t.Errorf("addr = %q, want :7070", cfg.addr)
	}
	if cfg.opts.Broker.QueueSize != broker.DefaultQueueSize {
		t.Errorf("queue = %d, want %d", cfg.opts.Broker.QueueSize, broker.DefaultQueueSize)
	}
	if cfg.opts.Broker.Aggregate {
		t.Error("aggregation on by default")
	}
	if cfg.opts.RetryAfter != 0 {
		t.Errorf("retry-after = %v, want disabled", cfg.opts.RetryAfter)
	}
	if cfg.opts.Logf == nil {
		t.Error("diagnostics silenced by default")
	}
}

func TestParseArgsFlags(t *testing.T) {
	var errOut bytes.Buffer
	cfg, err := parseArgs([]string{"-addr", ":9000", "-queue", "128", "-aggregate", "-retry-after", "250ms", "-quiet"}, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != ":9000" {
		t.Errorf("addr = %q", cfg.addr)
	}
	if cfg.opts.Broker.QueueSize != 128 {
		t.Errorf("queue = %d", cfg.opts.Broker.QueueSize)
	}
	if !cfg.opts.Broker.Aggregate {
		t.Error("-aggregate not set")
	}
	if cfg.opts.RetryAfter != 250*time.Millisecond {
		t.Errorf("retry-after = %v, want 250ms", cfg.opts.RetryAfter)
	}
	if cfg.opts.Logf != nil {
		t.Error("-quiet did not silence diagnostics")
	}
}

func TestParseArgsErrors(t *testing.T) {
	var errOut bytes.Buffer
	if _, err := parseArgs([]string{"-nosuchflag"}, &errOut); err == nil {
		t.Error("unknown flag accepted")
	}
	if !strings.Contains(errOut.String(), "Usage") && !strings.Contains(errOut.String(), "flag") {
		t.Errorf("no usage/diagnostic output: %q", errOut.String())
	}
	errOut.Reset()
	if _, err := parseArgs([]string{"stray"}, &errOut); err == nil {
		t.Error("stray positional argument accepted")
	}
}

func TestParseArgsHelp(t *testing.T) {
	var errOut bytes.Buffer
	_, err := parseArgs([]string{"-h"}, &errOut)
	if err == nil {
		t.Fatal("-h should return flag.ErrHelp")
	}
	for _, flagName := range []string{"-addr", "-queue", "-aggregate", "-retry-after", "-metrics-addr", "-quiet"} {
		if !strings.Contains(errOut.String(), flagName) {
			t.Errorf("help output missing %s: %q", flagName, errOut.String())
		}
	}
}
