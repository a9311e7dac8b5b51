package wire

import (
	"bytes"
	"math"
	"testing"

	"noncanon/internal/event"
	"noncanon/internal/value"
)

// hasNaN reports whether any float attribute of ev is NaN.
func hasNaN(ev event.Event) bool {
	nan := false
	ev.Range(func(_ string, v value.Value) bool {
		if v.Kind() == value.Float && math.IsNaN(v.Float()) {
			nan = true
			return false
		}
		return true
	})
	return nan
}

// FuzzDecodeEvent is the native-fuzzing promotion of the old
// random-bytes test (TestEventFuzzNoPanics): ReadEvent and ReadString
// must reject arbitrary garbage gracefully, and any payload ReadEvent
// accepts must survive a canonical re-encode/decode round trip —
// AppendEvent of the decoded event re-reads equal, and re-encoding is a
// byte-level fixed point (events encode attributes in sorted order, so
// the second encoding is canonical regardless of the input's ordering).
//
// Seeds beyond the inline f.Add corpus are checked in under
// testdata/fuzz/FuzzDecodeEvent.
func FuzzDecodeEvent(f *testing.F) {
	// Valid encodings of representative events.
	events := []event.Event{
		event.New(),
		event.New().Set("price", 150).Set("sym", "ACME"),
		event.New().Set("f", 1.5).Set("b", true).Set("s", ""),
		event.New().Set("neg", -1234567890),
	}
	for _, ev := range events {
		f.Add(AppendEvent(nil, ev))
	}
	// Malformed corners: truncated header, bad kind tag, short values.
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0x00, 0x01, 0x01, 'a', 0x09})       // unknown kind 0x09
	f.Add([]byte{0x00, 0x01, 0x01, 'a', 0x02, 0x40}) // short float
	f.Add([]byte{0xff, 0xff})                        // 65535 attrs, no data
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _ = ReadString(data) // must not panic
		ev, rest, err := ReadEvent(data)
		if err != nil {
			return
		}
		// Canonical round trip. ReadEvent may leave trailing bytes in rest
		// (frames carry their own length); only the consumed prefix
		// participates in the re-encoding.
		_ = rest
		enc := AppendEvent(nil, ev)
		ev2, rest2, err := ReadEvent(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v (input %x)", err, data)
		}
		if len(rest2) != 0 {
			t.Fatalf("canonical encoding left %d trailing bytes (input %x)", len(rest2), data)
		}
		// Event.Equal is IEEE equality, under which NaN differs from
		// itself; for NaN-carrying events the byte-level fixed point below
		// is the (stronger) round-trip witness.
		if !hasNaN(ev) && !ev.Equal(ev2) {
			t.Fatalf("round trip changed event\n  input: %x\n  first: %s\n  second: %s", data, ev, ev2)
		}
		if enc2 := AppendEvent(nil, ev2); !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical encoding not a fixed point\n  input: %x\n  enc1: %x\n  enc2: %x", data, enc, enc2)
		}
	})
}

// FuzzDecodePublishBatch covers the MsgPublishBatch payload decoder:
// ReadEventBatch must reject arbitrary garbage gracefully (including
// hostile event counts, which are bounds-checked against MaxBatchEvents
// and the remaining payload before anything is allocated), and any batch
// it accepts must survive a canonical re-encode/decode round trip, like
// FuzzDecodeEvent for single events.
//
// Seeds beyond the inline f.Add corpus are checked in under
// testdata/fuzz/FuzzDecodePublishBatch: the empty batch, a single-event
// batch, a max-count batch truncated after its header, and a truncated
// count prefix.
func FuzzDecodePublishBatch(f *testing.F) {
	// Valid batches: empty, single event, mixed kinds, and the largest
	// permitted count (empty events keep the seed small).
	batches := [][]event.Event{
		nil,
		{event.New().Set("price", 150).Set("sym", "ACME")},
		{
			event.New(),
			event.New().Set("f", 1.5).Set("b", true).Set("s", ""),
			event.New().Set("neg", -1234567890),
		},
	}
	maxBatch := make([]event.Event, MaxBatchEvents)
	for i := range maxBatch {
		maxBatch[i] = event.New()
	}
	batches = append(batches, maxBatch)
	for _, evs := range batches {
		f.Add(AppendEventBatch(nil, evs))
	}
	// Malformed corners: truncated count, count exceeding the payload,
	// count exceeding MaxBatchEvents, malformed inner event.
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00})
	f.Add(AppendU32(nil, 7))
	f.Add(AppendU32(nil, MaxBatchEvents+1))
	f.Add(append(AppendU32(nil, 1), 0x00, 0x01, 0x01, 'a', 0x63))
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, _, err := ReadEventBatch(data)
		if err != nil {
			return
		}
		if len(evs) > MaxBatchEvents {
			t.Fatalf("decoder admitted %d events (max %d)", len(evs), MaxBatchEvents)
		}
		enc := AppendEventBatch(nil, evs)
		evs2, rest, err := ReadEventBatch(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v (input %x)", err, data)
		}
		if len(rest) != 0 {
			t.Fatalf("canonical encoding left %d trailing bytes (input %x)", len(rest), data)
		}
		if len(evs2) != len(evs) {
			t.Fatalf("round trip changed batch size %d -> %d (input %x)", len(evs), len(evs2), data)
		}
		for i := range evs {
			if !hasNaN(evs[i]) && !evs[i].Equal(evs2[i]) {
				t.Fatalf("round trip changed event %d\n  input: %x\n  first: %s\n  second: %s",
					i, data, evs[i], evs2[i])
			}
		}
		if enc2 := AppendEventBatch(nil, evs2); !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical encoding not a fixed point\n  input: %x\n  enc1: %x\n  enc2: %x", data, enc, enc2)
		}
	})
}

// FuzzDecodeFederationFrame covers the broker-federation payload decoders
// — ReadHello, ReadSubForward, ReadUnsubForward and
// ReadEventForwardTraceAlias — on the same arbitrary bytes. None may
// panic. Whatever one accepts is re-encoded canonically and must read back
// unchanged, and every strict prefix of that encoding must be rejected.
// Event forwards round-trip at hops 0, 255 and the decoded count, with the
// trace suffix present and absent; a prefix that only cuts into the suffix
// reads as an untraced forward, which is the suffix's versioning contract.
func FuzzDecodeFederationFrame(f *testing.F) {
	ev := event.New().Set("price", 150).Set("sym", "ACME")
	f.Add(AppendHello(nil, FederationVersion, 7))
	f.Add(AppendSubForward(nil, 1<<32|5, `cat = 3 and price < 100`))
	f.Add(AppendUnsubForward(nil, 1<<32|5))
	f.Add(AppendEventForwardTrace(nil, 0, ev, 0, 0))
	f.Add(AppendEventForwardTrace(nil, 255, ev, 0xabcdef, -5e9))
	f.Add(AppendEventForwardTrace(nil, 1, event.New(), 1, 1)[:5])
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if ver, id, err := ReadHello(data); err == nil {
			enc := AppendHello(nil, ver, id)
			if v2, id2, err := ReadHello(enc); err != nil || v2 != ver || id2 != id {
				t.Fatalf("hello round trip: (%d, %d) -> (%d, %d, %v)", ver, id, v2, id2, err)
			}
			for n := range enc {
				if _, _, err := ReadHello(enc[:n]); err == nil {
					t.Fatalf("hello prefix %x accepted", enc[:n])
				}
			}
		}
		if sub, filter, err := ReadSubForward(data); err == nil {
			enc := AppendSubForward(nil, sub, filter)
			if s2, f2, err := ReadSubForward(enc); err != nil || s2 != sub || f2 != filter {
				t.Fatalf("sub forward round trip: (%d, %q) -> (%d, %q, %v)", sub, filter, s2, f2, err)
			}
			for n := range enc {
				if _, _, err := ReadSubForward(enc[:n]); err == nil {
					t.Fatalf("sub forward prefix %x accepted", enc[:n])
				}
			}
		}
		if sub, err := ReadUnsubForward(data); err == nil {
			enc := AppendUnsubForward(nil, sub)
			if s2, err := ReadUnsubForward(enc); err != nil || s2 != sub {
				t.Fatalf("unsub forward round trip: %d -> (%d, %v)", sub, s2, err)
			}
			for n := range enc {
				if _, err := ReadUnsubForward(enc[:n]); err == nil {
					t.Fatalf("unsub forward prefix %x accepted", enc[:n])
				}
			}
		}
		hops, ev, traceID, origin, err := ReadEventForwardTraceAlias(data)
		if err != nil {
			return
		}
		ev = ev.Retain()
		untraced := len(AppendEventForwardTrace(nil, hops, ev, 0, 0))
		for _, h := range []uint8{0, 255, hops} {
			for _, tr := range [][2]int64{{0, 0}, {int64(traceID), origin}, {-1, -5e9}} {
				id, on := uint64(tr[0]), tr[1]
				if id == 0 {
					on = 0 // an untraced frame carries no origin stamp
				}
				enc := AppendEventForwardTrace(nil, h, ev, id, on)
				h2, ev2, id2, on2, err := ReadEventForwardTraceAlias(enc)
				if err != nil {
					t.Fatalf("event forward round trip failed: %v (input %x)", err, data)
				}
				if h2 != h || id2 != id || on2 != on {
					t.Fatalf("event forward header (%d, %#x, %d) -> (%d, %#x, %d)", h, id, on, h2, id2, on2)
				}
				if !hasNaN(ev) && !ev.Equal(ev2) {
					t.Fatalf("event forward changed event\n  input: %x\n  first: %s\n  second: %s", data, ev, ev2)
				}
				if enc2 := AppendEventForwardTrace(nil, h2, ev2, id2, on2); !bytes.Equal(enc, enc2) {
					t.Fatalf("event forward encoding not a fixed point\n  enc1: %x\n  enc2: %x", enc, enc2)
				}
				for n := range enc {
					_, _, id3, _, err := ReadEventForwardTraceAlias(enc[:n])
					switch {
					case n < untraced && err == nil:
						t.Fatalf("event forward prefix %x accepted", enc[:n])
					case n >= untraced && (err != nil || id3 != 0):
						t.Fatalf("event forward cut inside its trace suffix read as (%#x, %v), want untraced", id3, err)
					}
				}
			}
		}
	})
}
