//go:build !race

package wire

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"noncanon/internal/event"
)

// TestWriteFrameAllocBudget: the scratch a frame is assembled in is pooled,
// so a steady-state WriteFrame allocates nothing.
func TestWriteFrameAllocBudget(t *testing.T) {
	payload := AppendEvent(AppendU64(nil, 7), event.New().Set("price", 150).Set("sym", "ACME"))
	if avg := testing.AllocsPerRun(200, func() {
		if err := WriteFrame(io.Discard, MsgEvent, payload); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("WriteFrame allocates %.1f per run, budget 0", avg)
	}
}

// TestReadFrameIntoAllocBudget: a reader loop whose buffer has reached its
// working size reads each further frame without allocating, header
// included.
func TestReadFrameIntoAllocBudget(t *testing.T) {
	var frame bytes.Buffer
	payload := AppendEvent(AppendU64(nil, 7), event.New().Set("price", 150).Set("sym", "ACME"))
	if err := WriteFrame(&frame, MsgEvent, payload); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(&repeatReader{frame: frame.Bytes()})
	var buf []byte
	read := func() {
		typ, got, bufOut, err := ReadFrameInto(br, buf)
		if err != nil || typ != MsgEvent || len(got) != len(payload) {
			t.Fatalf("ReadFrameInto = %d, %d bytes, %v", typ, len(got), err)
		}
		buf = bufOut
	}
	read()
	if avg := testing.AllocsPerRun(200, read); avg != 0 {
		t.Errorf("ReadFrameInto allocates %.1f per frame, budget 0", avg)
	}
}

// repeatReader streams frame over and over.
type repeatReader struct {
	frame []byte
	at    int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.at:])
	r.at = (r.at + n) % len(r.frame)
	return n, nil
}
