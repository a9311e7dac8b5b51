package arch

import (
	"reflect"
	"strings"
	"testing"
)

// TestHotPathFixture pins the hotpath rule against the checked-in
// violation package: each map range in an annotated function fires
// exactly once, map probes, slice ranges and unannotated functions stay
// silent, and the finding set is compared whole.
func TestHotPathFixture(t *testing.T) {
	mod, p := loadFixture(t, "hotviol")
	got := findingLines(CheckHotPaths(mod))
	want := wantLines(t, p, map[string][]string{
		"hotpath": {
			"map iteration on the hot path",
			"map iteration in a function literal",
		},
	})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("hotpath findings mismatch:\n got  %v\n want %v", got, want)
	}
}

// TestHotPathMessages checks findings name the construct and the function.
func TestHotPathMessages(t *testing.T) {
	mod, _ := loadFixture(t, "hotviol")
	var msgs []string
	for _, f := range CheckHotPaths(mod) {
		msgs = append(msgs, f.Msg)
	}
	for _, frag := range []string{
		"map iteration is unordered and cache-hostile in hot-path function rangesMap",
		"map iteration is unordered and cache-hostile in hot-path function rangesMapInLiteral",
	} {
		found := false
		for _, msg := range msgs {
			if strings.Contains(msg, frag) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no hotpath finding with message %q; got %v", frag, msgs)
		}
	}
}
