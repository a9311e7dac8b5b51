// Package lockviol is the lock-discipline test fixture: every blocking
// shape the pass must flag while a mutex is held, alongside the exempt
// shapes it must stay silent on. The unit test locates expectations by
// the trailing comments, so keep each marker unique within the file.
package lockviol

import (
	"sync"
	"time"
)

type broker struct {
	mu    sync.Mutex
	state sync.RWMutex
	cond  *sync.Cond
	wg    sync.WaitGroup
	in    chan int
	out   chan int
}

// sendUnderLock is the PR 5 deadlock shape verbatim.
func (b *broker) sendUnderLock(v int) {
	b.mu.Lock()
	b.out <- v // send while holding b.mu
	b.mu.Unlock()
}

func (b *broker) recvUnderRLock() int {
	b.state.RLock()
	defer b.state.RUnlock()
	return <-b.in // receive while holding b.state read lock
}

func (b *broker) selectUnderLock() {
	b.mu.Lock()
	defer b.mu.Unlock()
	select { // defaultless select while holding b.mu
	case <-b.in:
	}
}

func (b *broker) waitUnderLock() {
	b.mu.Lock()
	b.wg.Wait() // WaitGroup.Wait while holding b.mu
	b.mu.Unlock()
}

func (b *broker) sleepUnderDeferredUnlock() {
	b.mu.Lock()
	defer b.mu.Unlock()
	time.Sleep(time.Millisecond) // Sleep inside a deferred-unlock region
}

func (b *broker) rangeUnderLock() (n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for v := range b.in { // range over channel while holding b.mu
		n += v
	}
	return n
}

// --- exempt shapes: none of these may produce a finding -------------------

// sendAfterUnlock blocks only once the mutex is released.
func (b *broker) sendAfterUnlock(v int) {
	b.mu.Lock()
	v++
	b.mu.Unlock()
	b.out <- v
}

// selectWithDefault cannot block.
func (b *broker) selectWithDefault(v int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case b.out <- v:
		return true
	default:
		return false
	}
}

// condWait releases the mutex while waiting — that is sync.Cond's job.
func (b *broker) condWait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cond.Wait()
}

// goroutineUnderLock spawns the blocking work; the holder never blocks.
func (b *broker) goroutineUnderLock(v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	go func() {
		b.out <- v
	}()
}

// distinctMutexes: the send happens under b.state only after b.mu is
// released; regions are keyed per mutex expression.
func (b *broker) distinctMutexes(v int) {
	b.mu.Lock()
	v++
	b.mu.Unlock()
	b.out <- v
	b.state.RLock()
	v--
	b.state.RUnlock()
}
