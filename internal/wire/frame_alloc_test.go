//go:build !race

package wire

import (
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
