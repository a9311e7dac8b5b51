//go:build !race

package integration

import (
	"runtime"
	"testing"

	"noncanon/internal/broker"
	"noncanon/internal/netbroker"
	"noncanon/internal/netoverlay"
)

// TestIdleFootprint bounds what each serving layer holds before any
// traffic: a node that serves nothing yet pays for nothing it has not
// been asked to hold. Each layer is built idleInstances times and the
// heap and stack growth averaged, which reads below the 8 KB page the
// runtime accounts HeapInuse in.
func TestIdleFootprint(t *testing.T) {
	const idleInstances = 16
	for _, tc := range []struct {
		name  string
		bound uint64
		open  func() func()
	}{
		{"broker.New", 48 << 10, func() func() {
			b := broker.New(broker.Options{})
			return func() { b.Close() }
		}},
		{"netbroker.NewServer", 64 << 10, func() func() {
			s := netbroker.NewServer(netbroker.ServerOptions{})
			return func() { s.Close() }
		}},
		{"netoverlay.NewBroker", 160 << 10, func() func() {
			b := netoverlay.NewBroker(netoverlay.Options{NodeID: 1})
			return func() { b.Close() }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := inUse()
			closers := make([]func(), idleInstances)
			for i := range closers {
				closers[i] = tc.open()
			}
			per := (inUse() - before) / idleInstances
			for _, c := range closers {
				c()
			}
			t.Logf("%s idle: %d B", tc.name, per)
			if per > tc.bound {
				t.Errorf("%s holds %d B idle, want <= %d", tc.name, per, tc.bound)
			}
		})
	}
}

// inUse is the heap and stack the process holds after two collections:
// the second frees what the first only unlinked, such as sync.Pool items.
func inUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse + ms.StackInuse
}
