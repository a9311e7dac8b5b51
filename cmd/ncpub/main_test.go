package main

import (
	"bytes"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"noncanon/internal/boolexpr"
	"noncanon/internal/event"
	"noncanon/internal/netbroker"
	"noncanon/internal/sublang"
	"noncanon/internal/value"
)

// noncanonExpr parses a subscription for registration on the embedded
// broker.
func noncanonExpr(t *testing.T, s string) boolexpr.Expr {
	t.Helper()
	x, err := sublang.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestParseValue(t *testing.T) {
	tests := []struct {
		in   string
		want value.Value
	}{
		{"42", value.OfInt(42)},
		{"-7", value.OfInt(-7)},
		{"2.5", value.OfFloat(2.5)},
		{"true", value.OfBool(true)},
		{"false", value.OfBool(false)},
		{"hello", value.OfString("hello")},
		{"", value.OfString("")},
	}
	for _, tt := range tests {
		got := value.Of(parseValue(tt.in, 9))
		if !got.Equal(tt.want) && got.Kind() != tt.want.Kind() {
			t.Errorf("parseValue(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
	if got := value.Of(parseValue("auto", 9)); !got.Equal(value.OfInt(9)) {
		t.Errorf("auto = %v, want 9", got)
	}
}

func TestBuildEvent(t *testing.T) {
	ev, err := buildEvent([]string{"price=150", "sym=ACME", "seq=auto"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := ev.Get("price"); v.Int() != 150 {
		t.Errorf("price = %v", v)
	}
	if v, _ := ev.Get("sym"); v.Str() != "ACME" {
		t.Errorf("sym = %v", v)
	}
	if v, _ := ev.Get("seq"); v.Int() != 3 {
		t.Errorf("seq = %v", v)
	}
	if _, err := buildEvent([]string{"novalue"}, 0); err == nil {
		t.Error("missing '=' accepted")
	}
	if _, err := buildEvent([]string{"=x"}, 0); err == nil {
		t.Error("empty key accepted")
	}
}

// TestRunBatchAgainstLiveBroker smokes the -batch publish path end to
// end: a live TCP server, one matching subscription registered on the
// embedded broker, and run() driving PublishBatch in chunks. Per-event
// and per-batch lines must land on stdout with the right match counts.
func TestRunBatchAgainstLiveBroker(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := netbroker.NewServer(netbroker.ServerOptions{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	defer func() {
		srv.Close()
		<-done
	}()

	var delivered atomic.Int64
	if _, err := srv.Broker().Subscribe(
		noncanonExpr(t, `price = 42`),
		func(event.Event) { delivered.Add(1) },
	); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := run(&buf, ln.Addr().String(), []string{"price=42", "seq=auto"}, 5, 0, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if got := strings.Count(out, "published "); got != 5 {
		t.Fatalf("published lines = %d, want 5:\n%s", got, out)
	}
	// 5 events in batches of 2 → batches of 2, 2, 1.
	for _, want := range []string{"batch of 2 -> 2 match(es)", "batch of 1 -> 1 match(es)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for delivered.Load() != 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := delivered.Load(); got != 5 {
		t.Fatalf("delivered = %d, want 5", got)
	}
}
