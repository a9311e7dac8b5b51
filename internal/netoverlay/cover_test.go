package netoverlay

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"noncanon/internal/event"
)

func TestCoverSuppressesFlood(t *testing.T) {
	nw := newNet(t, 5, LineEdges(5), Options{Cover: true})

	var wideN, narrowN int
	var mu sync.Mutex
	if _, err := nw.Node(0).Subscribe(band(1, 100), func(event.Event) {
		mu.Lock()
		wideN++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	nw.Flush()
	afterWide := nw.Stats()
	if afterWide.SubscriptionMsgs != 4 {
		t.Fatalf("wide flood crossed %d links, want 4", afterWide.SubscriptionMsgs)
	}

	// The narrower subscription must not be flooded at all: node 0's only
	// link already carries a coverer.
	if _, err := nw.Node(0).Subscribe(band(1, 10), func(event.Event) {
		mu.Lock()
		narrowN++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	nw.Flush()
	st := nw.Stats()
	if st.SubscriptionMsgs != afterWide.SubscriptionMsgs {
		t.Errorf("narrow subscription was flooded: %d -> %d link messages",
			afterWide.SubscriptionMsgs, st.SubscriptionMsgs)
	}
	if st.CoverSuppressed != 1 {
		t.Errorf("CoverSuppressed = %d, want 1", st.CoverSuppressed)
	}

	// Events published at the far end still reach the suppressed
	// subscriber: the wide filter attracts them across the tree.
	if err := nw.Node(4).Publish(bandEvent(1, 5)); err != nil {
		t.Fatal(err)
	}
	if err := nw.Node(4).Publish(bandEvent(1, 50)); err != nil { // wide only
		t.Fatal(err)
	}
	nw.Flush()
	mu.Lock()
	defer mu.Unlock()
	if wideN != 2 {
		t.Errorf("wide deliveries = %d, want 2", wideN)
	}
	if narrowN != 1 {
		t.Errorf("narrow deliveries = %d, want 1", narrowN)
	}
}

func TestCoverUnsubscribeRefloods(t *testing.T) {
	nw := newNet(t, 4, LineEdges(4), Options{Cover: true})

	var narrowN int
	var mu sync.Mutex
	wide, err := nw.Node(0).Subscribe(band(1, 100), func(event.Event) {})
	if err != nil {
		t.Fatal(err)
	}
	nw.Flush()
	if _, err := nw.Node(0).Subscribe(band(1, 10), func(event.Event) {
		mu.Lock()
		narrowN++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	nw.Flush()
	preUnsub := nw.Stats()
	if preUnsub.CoverSuppressed != 1 {
		t.Fatalf("setup: CoverSuppressed = %d, want 1", preUnsub.CoverSuppressed)
	}

	// Unsubscribing the coverer must re-flood the narrow filter so remote
	// events keep reaching it.
	if err := nw.Node(0).Unsubscribe(wide); err != nil {
		t.Fatal(err)
	}
	nw.Flush()
	st := nw.Stats()
	// Per link: one re-flooded subscribe + one unsubscribe retraction,
	// across 3 links.
	if got := st.SubscriptionMsgs - preUnsub.SubscriptionMsgs; got != 6 {
		t.Errorf("re-flood link messages = %d, want 6", got)
	}
	if err := nw.Node(3).Publish(bandEvent(1, 5)); err != nil {
		t.Fatal(err)
	}
	if err := nw.Node(3).Publish(bandEvent(1, 50)); err != nil { // nobody left
		t.Fatal(err)
	}
	nw.Flush()
	mu.Lock()
	n := narrowN
	mu.Unlock()
	if n != 1 {
		t.Errorf("narrow deliveries after re-flood = %d, want 1", n)
	}
	// The wide-only event must no longer cross any link.
	st2 := nw.Stats()
	if got := st2.Forwarded - st.Forwarded; got != 3 {
		// Only the matching event travels the 3 links to node 0.
		t.Errorf("events crossed %d links, want 3", got)
	}
}

// TestCoverChainedRecovery pins the re-suppression path: with nested
// filters wide ⊇ mid ⊇ narrow all homed at node 0, unsubscribing wide must
// re-flood mid but keep narrow suppressed under mid, not flood it.
func TestCoverChainedRecovery(t *testing.T) {
	nw := newNet(t, 3, LineEdges(3), Options{Cover: true})

	var midN, narrowN int
	var mu sync.Mutex
	wide, err := nw.Node(0).Subscribe(band(1, 100), func(event.Event) {})
	if err != nil {
		t.Fatal(err)
	}
	nw.Flush()
	if _, err := nw.Node(0).Subscribe(band(1, 50), func(event.Event) {
		mu.Lock()
		midN++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Node(0).Subscribe(band(1, 10), func(event.Event) {
		mu.Lock()
		narrowN++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	nw.Flush()
	if st := nw.Stats(); st.CoverSuppressed != 2 {
		t.Fatalf("setup: CoverSuppressed = %d, want 2", st.CoverSuppressed)
	}

	if err := nw.Node(0).Unsubscribe(wide); err != nil {
		t.Fatal(err)
	}
	nw.Flush()
	st := nw.Stats()
	// 2 initial suppressions + mid transiently suppressed at node 1, where
	// the re-flood overtakes wide's retraction (the ordering that keeps
	// routing gapless). Narrow is not re-checked at node 0: its poset node
	// recorded mid as a parent beside wide, so wide's death leaves it
	// covered without a new suppression.
	if st.CoverSuppressed != 3 {
		t.Errorf("CoverSuppressed = %d, want 3", st.CoverSuppressed)
	}
	if err := nw.Node(2).Publish(bandEvent(1, 5)); err != nil {
		t.Fatal(err)
	}
	nw.Flush()
	mu.Lock()
	defer mu.Unlock()
	if midN != 1 || narrowN != 1 {
		t.Errorf("deliveries mid=%d narrow=%d, want 1/1", midN, narrowN)
	}
}

// TestCoverDifferential drives a covering and a plain network through the
// same interleaved subscribe/unsubscribe/publish script (quiescing between
// phases so both see identical routing states) and requires the exact
// same (subscriber, event) delivery multisets — while the covering network
// sends strictly fewer subscription link messages.
func TestCoverDifferential(t *testing.T) {
	const nodes = 13
	plain := newNet(t, nodes, TreeEdges(nodes, 2), Options{})
	covered := newNet(t, nodes, TreeEdges(nodes, 2), Options{Cover: true})

	recPlain, recCover := newRecorder(), newRecorder()
	rng := rand.New(rand.NewSource(17))
	type pair struct {
		p, c SubRef
		at   int
	}
	live := map[string]pair{}
	var tags []string
	seq := int64(0)

	for round := 0; round < 30; round++ {
		// Churn phase: a burst of subscribes and unsubscribes.
		for i := 0; i < 12; i++ {
			if rng.Intn(3) < 2 || len(tags) == 0 {
				tag := fmt.Sprintf("r%dc%d", round, i)
				at := rng.Intn(nodes)
				f := band(rng.Intn(3), 10*(1+rng.Intn(10)))
				rp, err := plain.Node(at).Subscribe(f, recPlain.handler(tag))
				if err != nil {
					t.Fatal(err)
				}
				rc, err := covered.Node(at).Subscribe(f, recCover.handler(tag))
				if err != nil {
					t.Fatal(err)
				}
				live[tag] = pair{p: rp, c: rc, at: at}
				tags = append(tags, tag)
			} else {
				i := rng.Intn(len(tags))
				tag := tags[i]
				tags[i] = tags[len(tags)-1]
				tags = tags[:len(tags)-1]
				pr := live[tag]
				delete(live, tag)
				if err := plain.Node(pr.at).Unsubscribe(pr.p); err != nil {
					t.Fatal(err)
				}
				if err := covered.Node(pr.at).Unsubscribe(pr.c); err != nil {
					t.Fatal(err)
				}
			}
		}
		plain.Flush()
		covered.Flush()

		// Publish phase against the quiesced routing state.
		for i := 0; i < 15; i++ {
			seq++
			ev := bandEvent(rng.Intn(3), rng.Intn(110)).Set("seq", seq)
			at := rng.Intn(nodes)
			if err := plain.Node(at).Publish(ev); err != nil {
				t.Fatal(err)
			}
			if err := covered.Node(at).Publish(ev); err != nil {
				t.Fatal(err)
			}
		}
		plain.Flush()
		covered.Flush()
	}

	dp, dc := recPlain.snapshot(), recCover.snapshot()
	if len(dp) != len(dc) {
		t.Fatalf("subscriber sets differ: %d vs %d", len(dp), len(dc))
	}
	for tag, ps := range dp {
		cs := dc[tag]
		if len(ps) != len(cs) {
			t.Fatalf("subscriber %s: plain %d deliveries, covered %d", tag, len(ps), len(cs))
		}
		for i := range ps {
			if ps[i] != cs[i] {
				t.Fatalf("subscriber %s delivery %d: plain seq %d, covered seq %d", tag, i, ps[i], cs[i])
			}
		}
	}

	stPlain, stCover := plain.Stats(), covered.Stats()
	if stCover.CoverSuppressed == 0 {
		t.Error("covering never suppressed a flood; the script lost its teeth")
	}
	if stCover.SubscriptionMsgs >= stPlain.SubscriptionMsgs {
		t.Errorf("covering sent %d subscription messages, plain %d — no pruning",
			stCover.SubscriptionMsgs, stPlain.SubscriptionMsgs)
	}
	t.Logf("subscription link messages: plain %d, covered %d (suppressed %d)",
		stPlain.SubscriptionMsgs, stCover.SubscriptionMsgs, stCover.CoverSuppressed)
}
