package arch

import (
	"reflect"
	"strings"
	"testing"
)

// TestLockDisciplineFixture pins the lock-blocking rule against the
// checked-in violation package: every blocking-under-lock shape fires,
// every exempt shape stays silent, and the whole finding set is compared
// — an unexpected extra finding fails just like a missed one.
func TestLockDisciplineFixture(t *testing.T) {
	mod, p := loadFixture(t, "lockviol")
	got := findingLines(CheckLockDiscipline(mod))

	want := wantLines(t, p, map[string][]string{
		"lock-blocking": {
			"send while holding b.mu",
			"receive while holding b.state read lock",
			"defaultless select while holding b.mu",
			"WaitGroup.Wait while holding b.mu",
			"Sleep inside a deferred-unlock region",
			"range over channel while holding b.mu",
		},
	})

	if !reflect.DeepEqual(got, want) {
		t.Errorf("lock-discipline findings mismatch:\n got  %v\n want %v", got, want)
	}
}

// TestLockDisciplineMessages spot-checks that findings explain themselves:
// the mutex, the lock site and the remedy all appear.
func TestLockDisciplineMessages(t *testing.T) {
	mod, _ := loadFixture(t, "lockviol")
	var sendMsg string
	for _, f := range CheckLockDiscipline(mod) {
		if f.Rule == "lock-blocking" && strings.Contains(f.Msg, "channel send") && sendMsg == "" {
			sendMsg = f.Msg
		}
	}
	for _, frag := range []string{"blocking channel send", "while holding b.mu", "locked at line"} {
		if !strings.Contains(sendMsg, frag) {
			t.Errorf("send finding %q missing %q", sendMsg, frag)
		}
	}
}

// TestLockDisciplineReadLockNaming checks the :r key renders readably.
func TestLockDisciplineReadLockNaming(t *testing.T) {
	if got := mutexName("b.state:r"); got != "b.state (read lock)" {
		t.Errorf("mutexName(b.state:r) = %q", got)
	}
	if got := mutexName("b.mu"); got != "b.mu" {
		t.Errorf("mutexName(b.mu) = %q", got)
	}
}
