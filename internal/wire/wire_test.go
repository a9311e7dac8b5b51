package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"

	"noncanon/internal/event"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{
		nil,
		{},
		[]byte("hello"),
		bytes.Repeat([]byte{0xAB}, 10_000),
	}
	for i, p := range payloads {
		buf.Reset()
		if err := WriteFrame(&buf, byte(i+1), p); err != nil {
			t.Fatalf("WriteFrame(%d): %v", i, err)
		}
		typ, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame(%d): %v", i, err)
		}
		if typ != byte(i+1) || !bytes.Equal(got, p) {
			t.Errorf("frame %d: typ=%d len=%d", i, typ, len(got))
		}
	}
}

func TestFrameSizeLimit(t *testing.T) {
	var buf bytes.Buffer
	big := make([]byte, MaxFrameSize)
	if err := WriteFrame(&buf, 1, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized write err = %v", err)
	}
	// Oversized length header on read.
	buf.Reset()
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, err := ReadFrame(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized read err = %v", err)
	}
	// Zero-length frame.
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 0})
	if _, _, err := ReadFrame(&buf); !errors.Is(err, ErrMalformed) {
		t.Errorf("empty frame err = %v", err)
	}
}

func TestFrameEOFAndTruncation(t *testing.T) {
	// Clean EOF at a frame boundary.
	if _, _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("EOF err = %v", err)
	}
	// Truncated header.
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0})); err == nil {
		t.Error("truncated header accepted")
	}
	// Truncated payload.
	var buf bytes.Buffer
	WriteFrame(&buf, 1, []byte("hello"))
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated payload accepted")
	}
}

func TestPrimitivesRoundTrip(t *testing.T) {
	b := AppendU32(nil, 0xDEADBEEF)
	b = AppendU64(b, 0x1122334455667788)
	b = AppendString(b, "hello world")
	b = AppendString(b, "")

	u32, b2, err := ReadU32(b)
	if err != nil || u32 != 0xDEADBEEF {
		t.Fatalf("ReadU32 = %x, %v", u32, err)
	}
	u64, b3, err := ReadU64(b2)
	if err != nil || u64 != 0x1122334455667788 {
		t.Fatalf("ReadU64 = %x, %v", u64, err)
	}
	s1, b4, err := ReadString(b3)
	if err != nil || s1 != "hello world" {
		t.Fatalf("ReadString = %q, %v", s1, err)
	}
	s2, rest, err := ReadString(b4)
	if err != nil || s2 != "" || len(rest) != 0 {
		t.Fatalf("empty ReadString = %q, rest=%d, %v", s2, len(rest), err)
	}
}

func TestPrimitivesShortInput(t *testing.T) {
	if _, _, err := ReadU32([]byte{1, 2}); !errors.Is(err, ErrMalformed) {
		t.Errorf("short u32 err = %v", err)
	}
	if _, _, err := ReadU64([]byte{1}); !errors.Is(err, ErrMalformed) {
		t.Errorf("short u64 err = %v", err)
	}
	// String length beyond buffer.
	b := AppendString(nil, strings.Repeat("x", 100))
	if _, _, err := ReadString(b[:20]); !errors.Is(err, ErrMalformed) {
		t.Errorf("short string err = %v", err)
	}
	if _, _, err := ReadString(nil); !errors.Is(err, ErrMalformed) {
		t.Errorf("empty string buf err = %v", err)
	}
}

func TestEventRoundTrip(t *testing.T) {
	events := []event.Event{
		event.New(),
		event.New().Set("price", 42),
		event.New().Set("price", -42).Set("ratio", 2.5).Set("sym", "ACME").Set("hot", true),
		event.New().Set("neg", false).Set("empty", ""),
		event.New().Set("big", int64(1)<<60),
	}
	for i, ev := range events {
		b := AppendEvent(nil, ev)
		got, rest, err := ReadEvent(b)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if len(rest) != 0 {
			t.Errorf("event %d: %d trailing bytes", i, len(rest))
		}
		if !got.Equal(ev) {
			t.Errorf("event %d: got %s, want %s", i, got, ev)
		}
	}
}

func TestEventRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 300; i++ {
		ev := event.New()
		for a := 0; a < rng.Intn(6); a++ {
			attr := "a" + string(rune('0'+a))
			switch rng.Intn(4) {
			case 0:
				ev = ev.Set(attr, rng.Int63()-rng.Int63())
			case 1:
				ev = ev.Set(attr, rng.NormFloat64())
			case 2:
				ev = ev.Set(attr, strings.Repeat("s", rng.Intn(20)))
			default:
				ev = ev.Set(attr, rng.Intn(2) == 0)
			}
		}
		got, _, err := ReadEvent(AppendEvent(nil, ev))
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if !got.Equal(ev) {
			t.Fatalf("iter %d: got %s, want %s", i, got, ev)
		}
	}
}

func TestEventMalformedInputs(t *testing.T) {
	cases := [][]byte{
		{},                      // no header
		{0},                     // short header
		{0, 1},                  // one attr promised, nothing follows
		{0, 1, 1, 'a'},          // attr name but no kind
		{0, 1, 1, 'a', 99},      // unknown kind
		{0, 1, 1, 'a', 2, 1, 2}, // short float
		{0, 1, 1, 'a', 4},       // short bool
		{0, 1, 1, 'a', 3, 10},   // string length overrun
	}
	for i, b := range cases {
		if _, _, err := ReadEvent(b); err == nil {
			t.Errorf("case %d: malformed event accepted", i)
		}
	}
}

// TestEventFuzzNoPanics feeds random bytes to the decoder; it must reject
// garbage gracefully. The native fuzz target FuzzDecodeEvent (fuzz_test.go)
// extends this with coverage guidance and round-trip assertions; this
// deterministic sweep remains as an always-on smoke pass.
func TestEventFuzzNoPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		_, _, _ = ReadEvent(b) // must not panic
		_, _, _ = ReadString(b)
	}
}

func TestEventBatchRoundTrip(t *testing.T) {
	batches := [][]event.Event{
		nil, // empty batch
		{event.New()},
		{
			event.New().Set("price", 150).Set("sym", "ACME"),
			event.New(),
			event.New().Set("f", 2.5).Set("b", true).Set("s", "x"),
		},
	}
	for i, evs := range batches {
		enc := AppendEventBatch(nil, evs)
		got, rest, err := ReadEventBatch(enc)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if len(rest) != 0 {
			t.Fatalf("batch %d: %d trailing bytes", i, len(rest))
		}
		if len(got) != len(evs) {
			t.Fatalf("batch %d: got %d events, want %d", i, len(got), len(evs))
		}
		for j := range evs {
			if !got[j].Equal(evs[j]) {
				t.Fatalf("batch %d event %d: got %s, want %s", i, j, got[j], evs[j])
			}
		}
	}
}

func TestEventBatchTrailingBytes(t *testing.T) {
	enc := AppendEventBatch(nil, []event.Event{event.New().Set("a", 1)})
	enc = append(enc, 0xde, 0xad)
	_, rest, err := ReadEventBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 2 {
		t.Fatalf("rest = %d bytes, want 2", len(rest))
	}
}

func TestEventBatchMalformedInputs(t *testing.T) {
	overCount := AppendU32(nil, MaxBatchEvents+1)
	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty input", nil, ErrMalformed},
		{"truncated count", []byte{0, 0}, ErrMalformed},
		{"count exceeds payload", AppendU32(nil, 3), ErrMalformed},
		{"oversized count", overCount, ErrBatchTooLarge},
		{"bad inner event", append(AppendU32(nil, 1), 0, 1, 1, 'a', 99), ErrMalformed},
	}
	for _, tc := range cases {
		if _, _, err := ReadEventBatch(tc.b); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestEventBatchMaxCountAccepted(t *testing.T) {
	// Exactly MaxBatchEvents empty events decode fine; the bound is not
	// off by one.
	evs := make([]event.Event, MaxBatchEvents)
	for i := range evs {
		evs[i] = event.New()
	}
	got, _, err := ReadEventBatch(AppendEventBatch(nil, evs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != MaxBatchEvents {
		t.Fatalf("got %d events, want %d", len(got), MaxBatchEvents)
	}
}

func TestFederationPayloadRoundTrips(t *testing.T) {
	ver, node, err := ReadHello(AppendHello(nil, FederationVersion, 42))
	if err != nil {
		t.Fatal(err)
	}
	if ver != FederationVersion || node != 42 {
		t.Errorf("hello = v%d node %d", ver, node)
	}

	const filter = `cat = 1 and price < 100`
	subID, text, err := ReadSubForward(AppendSubForward(nil, 7<<32|9, filter))
	if err != nil {
		t.Fatal(err)
	}
	if subID != 7<<32|9 || text != filter {
		t.Errorf("sub forward = %d %q", subID, text)
	}

	unsubID, err := ReadUnsubForward(AppendUnsubForward(nil, 99))
	if err != nil {
		t.Fatal(err)
	}
	if unsubID != 99 {
		t.Errorf("unsub forward = %d", unsubID)
	}

	ev := event.New().Set("sym", "ACME").Set("price", int64(7)).Set("hot", true)
	hops, got, traceID, _, err := ReadEventForwardTraceAlias(AppendEventForwardTrace(nil, 3, ev, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if hops != 3 || traceID != 0 {
		t.Errorf("hops = %d, trace %d, want 3 and no trace", hops, traceID)
	}
	if !got.Equal(ev) {
		t.Errorf("event round trip: got %v, want %v", got, ev)
	}
}

func TestBusyRoundTrip(t *testing.T) {
	reqID, retry, err := ReadBusy(AppendBusy(nil, 0xdeadbeef, 250))
	if err != nil {
		t.Fatal(err)
	}
	if reqID != 0xdeadbeef || retry != 250 {
		t.Errorf("busy = req %#x retry %dms", reqID, retry)
	}
	if _, _, err := ReadBusy([]byte{1, 2}); !errors.Is(err, ErrMalformed) {
		t.Errorf("short busy err = %v", err)
	}
	if _, _, err := ReadBusy(AppendU32(nil, 1)); !errors.Is(err, ErrMalformed) {
		t.Errorf("busy missing retry err = %v", err)
	}
}

func TestFederationPayloadShortInputs(t *testing.T) {
	if _, _, err := ReadHello([]byte{1, 2}); !errors.Is(err, ErrMalformed) {
		t.Errorf("short hello err = %v", err)
	}
	if _, _, err := ReadHello(AppendU32(nil, 1)); !errors.Is(err, ErrMalformed) {
		t.Errorf("hello missing node err = %v", err)
	}
	if _, _, err := ReadSubForward([]byte{1}); !errors.Is(err, ErrMalformed) {
		t.Errorf("short sub forward err = %v", err)
	}
	if _, _, err := ReadSubForward(AppendU64(nil, 1)); !errors.Is(err, ErrMalformed) {
		t.Errorf("sub forward missing filter err = %v", err)
	}
	if _, err := ReadUnsubForward([]byte{1, 2, 3}); !errors.Is(err, ErrMalformed) {
		t.Errorf("short unsub err = %v", err)
	}
	if _, _, _, _, err := ReadEventForwardTraceAlias(nil); !errors.Is(err, ErrMalformed) {
		t.Errorf("empty event forward err = %v", err)
	}
	if _, _, _, _, err := ReadEventForwardTraceAlias([]byte{1, 0}); !errors.Is(err, ErrMalformed) {
		t.Errorf("truncated event forward err = %v", err)
	}
}

func TestEventForwardTraceRoundTrip(t *testing.T) {
	ev := event.New().Set("sym", "ACME").Set("price", int64(7))
	// The version-1 frame that predates tracing: hop count, then the event.
	untraced := func(hops uint8) []byte { return AppendEvent([]byte{hops}, ev) }

	// Traced frame round-trips all four fields.
	b := AppendEventForwardTrace(nil, 2, ev, 0xabcdef0123456789, -5e9)
	hops, got, traceID, origin, err := ReadEventForwardTraceAlias(b)
	if err != nil {
		t.Fatal(err)
	}
	if hops != 2 || !got.Equal(ev) {
		t.Errorf("hops/event = %d %v", hops, got)
	}
	if traceID != 0xabcdef0123456789 || origin != -5e9 {
		t.Errorf("trace = %#x origin %d", traceID, origin)
	}

	// Backward compatibility both ways. A version-1 reader (hop byte, then
	// an event decode that ignores what follows) parses a traced frame,
	// silently dropping the suffix...
	oldEv, _, err := ReadEvent(b[1:])
	if err != nil {
		t.Fatalf("old reader rejected traced frame: %v", err)
	}
	if b[0] != 2 || !oldEv.Equal(ev) {
		t.Errorf("old reader on traced frame = %d %v", b[0], oldEv)
	}
	// ...and a traced reader reports no trace on an old frame.
	hops, got, traceID, origin, err = ReadEventForwardTraceAlias(untraced(3))
	if err != nil {
		t.Fatal(err)
	}
	if hops != 3 || !got.Equal(ev) || traceID != 0 || origin != 0 {
		t.Errorf("untraced frame = %d %v trace %d origin %d", hops, got, traceID, origin)
	}

	// A zero trace ID encodes byte-identically to the untraced form.
	if traced := AppendEventForwardTrace(nil, 3, ev, 0, 12345); string(untraced(3)) != string(traced) {
		t.Errorf("zero-trace frame differs from plain frame")
	}

	// A partial suffix (future field, or truncation past the event) is
	// ignored, not an error — same contract as trailing bytes today.
	if _, _, traceID, _, err = ReadEventForwardTraceAlias(append(untraced(1), 1, 2, 3)); err != nil || traceID != 0 {
		t.Errorf("short suffix: trace %d err %v", traceID, err)
	}
	if _, _, _, _, err = ReadEventForwardTraceAlias(nil); !errors.Is(err, ErrMalformed) {
		t.Errorf("empty traced forward err = %v", err)
	}
}
