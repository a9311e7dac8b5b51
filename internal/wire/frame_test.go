package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"noncanon/internal/event"
)

// countingWriter records every Write it receives.
type countingWriter struct {
	writes int
	bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestWriteFrameIsOneWrite pins the framing bugfix: header and payload
// leave in a single Write (with TCP_NODELAY two Writes are two system calls
// and usually two segments), and the bytes are what they always were —
// u32be length including the type byte, the type, the payload.
func TestWriteFrameIsOneWrite(t *testing.T) {
	payloads := [][]byte{
		nil,
		{0x2a},
		AppendEvent(AppendU64(nil, 7), event.New().Set("price", 150).Set("sym", "ACME")),
		bytes.Repeat([]byte{0xab}, maxKeptFrame+1), // scratch too large to pool
	}
	var w countingWriter
	var want []byte
	for i, p := range payloads {
		if err := WriteFrame(&w, MsgEvent, p); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		want = binary.BigEndian.AppendUint32(want, uint32(len(p)+1))
		want = append(append(want, MsgEvent), p...)
	}
	if w.writes != len(payloads) {
		t.Errorf("%d frames took %d Writes, want one each", len(payloads), w.writes)
	}
	if !bytes.Equal(w.Bytes(), want) {
		t.Errorf("frame bytes changed")
	}
	if err := WriteFrame(&w, MsgEvent, make([]byte, MaxFrameSize)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized frame: err = %v, want ErrFrameTooLarge", err)
	}
	if w.writes != len(payloads) {
		t.Errorf("oversized frame reached the writer")
	}
}

// TestFramesBuiltInPlace: frames appended with BeginFrame/EndFrame next to
// each other read back as WriteFrame's would, and an oversized one is cut
// off without disturbing its neighbours.
func TestFramesBuiltInPlace(t *testing.T) {
	var b []byte
	for i := 0; i < 3; i++ {
		at := len(b)
		b = AppendU32(BeginFrame(b, MsgPong), uint32(i))
		var err error
		if b, err = EndFrame(b, at); err != nil {
			t.Fatal(err)
		}
	}
	at := len(b)
	big, err := EndFrame(append(BeginFrame(b, MsgEvent), make([]byte, MaxFrameSize)...), at)
	if !errors.Is(err, ErrFrameTooLarge) || len(big) != at {
		t.Fatalf("oversized frame: len %d (want %d), err %v", len(big), at, err)
	}
	r := bytes.NewReader(big)
	for i := 0; i < 3; i++ {
		typ, payload, err := ReadFrame(r)
		if err != nil || typ != MsgPong {
			t.Fatalf("frame %d: type 0x%02x, err %v", i, typ, err)
		}
		if v, _, _ := ReadU32(payload); v != uint32(i) {
			t.Errorf("frame %d carries %d", i, v)
		}
	}
	if r.Len() != 0 {
		t.Errorf("%d stray bytes after the last frame", r.Len())
	}
}

// TestFrameBuffered: only a whole frame in the buffer counts; asking never
// reads from the source.
func TestFrameBuffered(t *testing.T) {
	var stream bytes.Buffer
	for i := 0; i < 2; i++ {
		if err := WriteFrame(&stream, MsgPong, AppendU32(nil, uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	whole := stream.Len()
	src := &countingReader{r: bytes.NewReader(stream.Bytes()[:whole-2])} // the second frame is cut short
	br := bufio.NewReader(src)
	if FrameBuffered(br) || src.reads != 0 {
		t.Fatalf("empty buffer: FrameBuffered true or read the source (%d reads)", src.reads)
	}
	if _, _, err := ReadFrame(br); err != nil { // fills the buffer with everything there is
		t.Fatal(err)
	}
	reads := src.reads
	if FrameBuffered(br) {
		t.Error("a frame missing its last two bytes counted as buffered")
	}
	if src.reads != reads {
		t.Error("FrameBuffered read from the source")
	}
}

type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}
