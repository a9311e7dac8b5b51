package main

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"noncanon/internal/boolexpr"
	"noncanon/internal/event"
	"noncanon/internal/netoverlay"
	"noncanon/internal/predicate"
)

func TestRunTopologies(t *testing.T) {
	for _, topo := range []string{"line", "star", "tree"} {
		for _, coverOn := range []bool{false, true} {
			sc := simConfig{Nodes: 7, Topology: topo, Fanout: 2, Subs: 20, Events: 100, Seed: 1, Cover: coverOn}
			if err := run(sc); err != nil {
				t.Errorf("%s (cover=%v): %v", topo, coverOn, err)
			}
		}
	}
}

func TestRunUnknownTopology(t *testing.T) {
	if err := run(simConfig{Nodes: 7, Topology: "ring", Fanout: 2, Subs: 20, Events: 100, Seed: 1}); err == nil {
		t.Error("unknown topology accepted")
	}
}

func TestRunSingleNode(t *testing.T) {
	if err := run(simConfig{Nodes: 1, Topology: "line", Fanout: 2, Subs: 5, Events: 20, Seed: 1, Cover: true}); err != nil {
		t.Errorf("single node: %v", err)
	}
}

func TestRunCustomWatermarks(t *testing.T) {
	sc := simConfig{
		Nodes: 5, Topology: "line", Fanout: 2, Subs: 20, Events: 100, Seed: 1,
		LinkHighWater: 1 << 20,
	}
	if err := run(sc); err != nil {
		t.Errorf("custom watermarks: %v", err)
	}
}

func TestRunFederatedNeedsID(t *testing.T) {
	if err := runFederated(&bytes.Buffer{}, fedConfig{Listen: "127.0.0.1:0"}); err == nil {
		t.Error("federation mode without -id accepted")
	}
}

func TestRunFederatedListenOnly(t *testing.T) {
	var buf bytes.Buffer
	err := runFederated(&buf, fedConfig{
		ID: 1, Listen: "127.0.0.1:0", Subs: 5, Events: 0,
		Seed: 1, Settle: 50 * time.Millisecond,
		LinkHighWater: 1 << 20, EvictAfter: -1, Ping: -1, ReadIdle: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "listening on") {
		t.Errorf("missing listen line in output:\n%s", buf.String())
	}
}

// TestRunFederatedAgainstPeer links the command path to a live parent
// broker over loopback TCP: the process's subscriptions must flood to the
// parent and its events must reach the parent's subscriber.
func TestRunFederatedAgainstPeer(t *testing.T) {
	for _, coverOn := range []bool{false, true} {
		parent := netoverlay.NewBroker(netoverlay.Options{NodeID: 99, Cover: coverOn})
		addr, err := parent.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var atParent atomic.Int64
		if _, err := parent.Subscribe(
			boolexpr.Pred("price", predicate.Ge, 0),
			func(event.Event) { atParent.Add(1) },
		); err != nil {
			t.Fatal(err)
		}

		var buf bytes.Buffer
		err = runFederated(&buf, fedConfig{
			ID: 2, Peers: []string{addr.String()},
			Subs: 10, Events: 50, Seed: 1, Cover: coverOn,
			Settle: 75 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("cover=%v: %v\n%s", coverOn, err, buf.String())
		}
		out := buf.String()
		if !strings.Contains(out, "linked to") || !strings.Contains(out, "events/s") {
			t.Errorf("cover=%v: unexpected output:\n%s", coverOn, out)
		}
		if !strings.Contains(out, "flow control") || !strings.Contains(out, "0 peers evicted") {
			t.Errorf("cover=%v: missing flow-control line:\n%s", coverOn, out)
		}
		if strings.Contains(out, "ANOMALIES") {
			t.Errorf("cover=%v: routing anomalies reported:\n%s", coverOn, out)
		}
		// Every published event matches the parent's catch-all filter. The
		// child quiesced before returning, but the parent may still be
		// draining the last frames off its socket.
		deadline := time.Now().Add(10 * time.Second)
		for atParent.Load() != 50 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if got := atParent.Load(); got != 50 {
			t.Errorf("cover=%v: parent saw %d events, want 50", coverOn, got)
		}
		if st := parent.Stats(); st.SubscriptionMsgs == 0 {
			t.Errorf("cover=%v: no subscription flood reached the parent", coverOn)
		}
		parent.Close()
	}
}

func TestConnectRetryGivesUp(t *testing.T) {
	b := netoverlay.NewBroker(netoverlay.Options{NodeID: 5})
	defer b.Close()
	// Nothing listens here; the retry loop must eventually fail, not hang.
	done := make(chan error, 1)
	go func() { done <- connectRetry(b, "127.0.0.1:1") }()
	select {
	case err := <-done:
		if err == nil {
			t.Error("connect to dead address succeeded")
		}
	case <-time.After(dialRetry + 10*time.Second):
		t.Fatal("connectRetry did not give up")
	}
}
