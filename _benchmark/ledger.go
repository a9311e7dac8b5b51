package main

import "fmt"

// ledger is the oracle gate: what the oracle expects per event against what
// arrived. The publishing goroutine owns the sent side, the receiving
// goroutine the got side; verify runs after both have stopped.
type ledger struct {
	pop *population

	sentKey  []int32
	sentMask []uint64

	gotKey  []int32 // group of the first delivery of a seq, +1; 0 = none yet
	gotMask []uint64
	dup     int64 // a (subscription, seq) pair delivered again
	stray   int64 // unknown handle or seq, or a subscription outside the event's group
}

// expect records the oracle's mask for the next seq and returns it.
func (l *ledger) expect(key int32, mask uint64) int64 {
	l.sentKey = append(l.sentKey, key)
	l.sentMask = append(l.sentMask, mask)
	return int64(len(l.sentKey) - 1)
}

// deliver records one arrival for stored subscription sub.
func (l *ledger) deliver(sub int, seq int64) {
	if sub < 0 || sub >= len(l.pop.key) || seq < 0 {
		l.stray++
		return
	}
	for int64(len(l.gotMask)) <= seq {
		l.gotMask = append(l.gotMask, 0)
		l.gotKey = append(l.gotKey, 0)
	}
	key, b := l.pop.key[sub], uint64(1)<<l.pop.bit[sub]
	switch {
	case l.gotKey[seq] == 0:
		l.gotKey[seq] = key + 1
	case l.gotKey[seq] != key+1:
		l.stray++
		return
	}
	if l.gotMask[seq]&b != 0 {
		l.dup++
		return
	}
	l.gotMask[seq] |= b
}

// verdict is the gate's result. failed counts every way a run can be wrong;
// attempted is what it is a share of.
type verdict struct {
	attempted, failed                int64
	missing, duplicate, stray, extra int64
}

func (v *verdict) add(o verdict) {
	v.attempted, v.failed = v.attempted+o.attempted, v.failed+o.failed
	v.missing, v.duplicate, v.stray, v.extra = v.missing+o.missing, v.duplicate+o.duplicate, v.stray+o.stray, v.extra+o.extra
}

func (v verdict) failedShare() float64 {
	if v.attempted == 0 {
		return 1
	}
	return float64(v.failed) / float64(v.attempted)
}

func (v verdict) String() string {
	return fmt.Sprintf("attempted %d failed %d (missing %d duplicate %d stray %d unexpected %d)",
		v.attempted, v.failed, v.missing, v.duplicate, v.stray, v.extra)
}

// verify compares the two sides: the received (subscription, seq) multiset
// must equal the expected one exactly. opErrors are publish errors, Busy
// replies and failed subscription round trips, which count as failures too.
func (l *ledger) verify(opErrors int64) verdict {
	v := verdict{duplicate: l.dup, stray: l.stray}
	for seq, want := range l.sentMask {
		var got uint64
		if seq < len(l.gotMask) {
			got = l.gotMask[seq]
			if k := l.gotKey[seq]; k != 0 && k != l.sentKey[seq]+1 {
				v.extra += int64(popcount(got))
				got = 0
			}
		}
		v.attempted += int64(popcount(want))
		v.missing += int64(popcount(want &^ got))
		v.extra += int64(popcount(got &^ want))
	}
	for seq := len(l.sentMask); seq < len(l.gotMask); seq++ {
		v.extra += int64(popcount(l.gotMask[seq]))
	}
	v.attempted += opErrors
	v.failed = v.missing + v.duplicate + v.stray + v.extra + opErrors
	return v
}
