package main

// The load generator. It is frozen code: a change in any number it reports
// belongs to the program it drives. Two goroutines at most are busy at a
// time — the publisher (the goroutine that runs the phases) and the
// receiver (the subscriber connection's reader, or the overlay node's
// handler goroutine).

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"syscall"
	"time"
)

var benchStart = time.Now()

// nowNs is the benchmark clock: monotonic nanoseconds since process start.
// Events carry it as ts; latency is receive time minus ts.
func nowNs() int64 { return int64(time.Since(benchStart)) }

func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// stallTimeout bounds every wait on the program: a lost delivery or reply
// fails the run instead of hanging it.
const stallTimeout = 15 * time.Second

// --- receiving side ---

// sink is where deliveries land. deliver is called by the one receiving
// goroutine; the publisher reads the counter and sleeps on wake.
type sink struct {
	led      *ledger
	received atomic.Int64
	waitFor  atomic.Int64 // publisher sleeps until received reaches this; 0 = nobody waits
	wake     chan struct{}

	// While a paced phase records, recordFrom is its first due time and
	// lat[w] collects receive − due, ns, of the events due in its w-th
	// window (see windowNs).
	recordFrom atomic.Int64
	lat        [][]int64
	tr         *tracer // receipt spans while a traced phase runs
}

// windowNs cuts a paced phase into windows of 0.7 s, four to a round.
// Latency percentiles are taken per window and the good quartile of the
// windows is reported (see goodQuartile), so interference from the host
// spoils the windows it covers and not the run's p90.
const windowNs = int64(700 * time.Millisecond)

// windowOf is the window an event due at `due` falls into, or -1.
func windowOf(from, due int64, windows int) int {
	if from == 0 || due < from {
		return -1
	}
	if w := int((due - from) / windowNs); w < windows {
		return w
	}
	return -1
}

func newSink(pop *population) *sink {
	return &sink{led: &ledger{pop: pop}, wake: make(chan struct{}, 1)}
}

func (k *sink) deliver(sub int, seq, ts int64) {
	now := nowNs()
	k.led.deliver(sub, seq)
	if w := windowOf(k.recordFrom.Load(), ts, len(k.lat)); w >= 0 {
		k.lat[w] = append(k.lat[w], now-ts)
		if k.tr != nil {
			k.tr.receipt(seq, ts, now)
		}
	}
	n := k.received.Add(1)
	if w := k.waitFor.Load(); w != 0 && n >= w {
		select {
		case k.wake <- struct{}{}:
		default:
		}
	}
}

// waitReceived blocks, without spinning, until n deliveries have arrived.
func (k *sink) waitReceived(n int64) error {
	if k.received.Load() >= n {
		return nil
	}
	k.waitFor.Store(n)
	defer k.waitFor.Store(0)
	deadline := time.NewTimer(stallTimeout)
	defer deadline.Stop()
	for k.received.Load() < n {
		select {
		case <-k.wake:
		case <-deadline.C:
			return fmt.Errorf("stalled: %d of %d expected deliveries after %v", k.received.Load(), n, stallTimeout)
		}
	}
	return nil
}

// record starts recording events due from `from` on into `windows` windows.
// Call while the receiver is idle.
func (k *sink) record(from int64, windows int, tr *tracer) {
	k.lat, k.tr = make([][]int64, windows), tr
	k.recordFrom.Store(from)
}

// recorded stops recording and returns the windows. Call only after a drain.
func (k *sink) recorded() [][]int64 {
	k.recordFrom.Store(0)
	l := k.lat
	k.lat, k.tr = nil, nil
	return l
}

// --- publishing side ---

// source numbers events, asks the oracle what each should reach, and hands
// them to a transport that returns once the program has accepted the event.
type source struct {
	pop  *population
	sink *sink
	send func(ev Event) error

	seq       int64
	expected  int64 // oracle-expected deliveries of everything published
	published int64
	errs      int64 // publish errors and Busy replies

	recordFrom int64     // as sink's
	acks       [][]int64 // send → accepted, ns, per window
	tr         *tracer
}

func (s *source) emit(due int64) {
	ev, key := s.pop.event(s.seq, due)
	mask := s.pop.expected(ev, key)
	s.sink.led.expect(key, mask)
	s.seq++
	s.expected += int64(popcount(mask))
	t0 := nowNs()
	err := s.send(ev)
	t1 := nowNs()
	s.published++
	if err != nil {
		s.errs++
		fmt.Fprintf(os.Stderr, "publish %d: %v\n", s.seq-1, err)
	}
	if w := windowOf(s.recordFrom, due, len(s.acks)); w >= 0 {
		s.acks[w] = append(s.acks[w], t1-t0)
		if s.tr != nil {
			s.tr.publish(s.seq-1, due, t0, t1)
		}
	}
}

func (s *source) sample() sample {
	return sample{ns: nowNs(), published: s.published, received: s.sink.received.Load(), cpuNs: cpuNs()}
}

// drain waits until everything the oracle expects has arrived.
func (s *source) drain() error { return s.sink.waitReceived(s.expected) }

// saturate is the closed loop: publish as fast as the program accepts while
// keeping at most window oracle-expected deliveries outstanding, so the rate
// it settles at has no drops and no growing backlog. It returns the counters
// at the boundaries of slices of length slice; a dur shorter than that is one
// slice.
func (s *source) saturate(dur, slice time.Duration) ([]sample, error) {
	window := int64(s.pop.spec.window)
	samples := []sample{s.sample()}
	start := samples[0].ns
	step := int64(min(slice, dur))
	slices := int(int64(dur) / step)
	for {
		if now := nowNs(); now-start >= int64(len(samples))*step {
			samples = append(samples, s.sample())
			if len(samples) > slices {
				return samples, s.drain()
			}
		}
		if s.expected-s.sink.received.Load() >= window {
			if err := s.sink.waitReceived(s.expected - window + 1); err != nil {
				return samples, err
			}
		}
		s.emit(nowNs())
	}
}

// pacer is the open loop's schedule: rate events per second in ticks of one
// millisecond, independent of how the program keeps up. It never merges
// ticks: after a stall each missed tick is still emitted on its own, stamped
// with its own due time, so lateness is charged to the events it delayed.
type pacer struct {
	rate  int64 // events per second
	start int64 // due time of tick 0
	tick  int64 // next tick to emit

	emitted, late int64 // late: sent more than one tick after due
	lateMax       int64
}

const tickNs = int64(time.Millisecond)

// next reports the oldest unemitted tick if it is due: its event count and
// due time. Otherwise it reports how long to sleep.
func (p *pacer) next(now int64) (n int, due, wait int64) {
	due = p.start + p.tick*tickNs
	if now < due {
		return 0, due, due - now
	}
	n = int((p.tick+1)*p.rate/1000 - p.tick*p.rate/1000)
	p.tick++
	return n, due, 0
}

// sent accounts one event's lateness at the moment it went out.
func (p *pacer) sent(now, due int64) {
	p.emitted++
	l := now - due
	if l > tickNs {
		p.late++
	}
	p.lateMax = max(p.lateMax, l)
}

// sleepNs sleeps in the kernel. The runtime's timers wake a goroutine up to a
// millisecond late when the process is otherwise idle, which is the length of
// a tick; nanosleep overshoots by the kernel's timer slack, some 50 µs.
func sleepNs(ns int64) {
	ts := syscall.NsecToTimespec(ns)
	syscall.Nanosleep(&ts, nil)
}

// paced is the open loop: events leave on the pacer's schedule and are timed
// from their due time. Latencies are recorded per window, with spans too when
// tr is set; the caller collects them from the sink and s.acks.
func (s *source) paced(dur time.Duration, tr *tracer) (*pacer, error) {
	p := &pacer{rate: int64(s.pop.spec.pacedRate), start: nowNs() + tickNs}
	end := p.start + int64(dur)
	windows := int((int64(dur) + windowNs - 1) / windowNs)
	s.recordFrom, s.acks, s.tr = p.start, make([][]int64, windows), tr
	s.sink.record(p.start, windows, tr)
	defer func() { s.recordFrom, s.tr = 0, nil }()
	for {
		n, due, wait := p.next(nowNs())
		if wait > 0 {
			sleepNs(wait)
			continue
		}
		if due >= end {
			return p, s.drain()
		}
		for i := 0; i < n; i++ {
			p.sent(nowNs(), due)
			s.emit(due)
		}
	}
}

// --- the raw wire client ---

// rawConn speaks the broker protocol with nothing in between: one write per
// request frame, frames read in place from a buffered reader.
type rawConn struct {
	nc      net.Conn
	br      *bufio.Reader
	wbuf    []byte
	pending int // bytes of the frame handed out by the last next
}

func dialRaw(addr string) (*rawConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &rawConn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}, nil
}

// frame appends a request frame to the write buffer; flush sends them all.
func (c *rawConn) frame(typ byte, reqID uint32, body func([]byte) []byte) {
	at := len(c.wbuf)
	c.wbuf = append(c.wbuf, 0, 0, 0, 0, typ)
	c.wbuf = appendU32(c.wbuf, reqID)
	c.wbuf = body(c.wbuf)
	binary.BigEndian.PutUint32(c.wbuf[at:], uint32(len(c.wbuf)-at-4))
}

func (c *rawConn) flush() error {
	_, err := c.nc.Write(c.wbuf)
	c.wbuf = c.wbuf[:0]
	return err
}

// next returns the next frame. The payload aliases the read buffer and is
// valid until the following call.
func (c *rawConn) next() (typ byte, payload []byte, err error) {
	if c.pending > 0 {
		if _, err := c.br.Discard(c.pending); err != nil {
			return 0, nil, err
		}
		c.pending = 0
	}
	hdr, err := c.br.Peek(4)
	if err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n < 1 || n > c.br.Size()-4 {
		return 0, nil, fmt.Errorf("frame of %d bytes", n)
	}
	f, err := c.br.Peek(4 + n)
	if err != nil {
		return 0, nil, err
	}
	c.pending = 4 + n
	return f[4], f[5:], nil
}

// tcpPublisher is the publisher connection: one request in flight, the reply
// matched by request ID. Bytes after the first reply field are ignored, so a
// reply that grows fields does not break the generator.
type tcpPublisher struct {
	c     *rawConn
	reqID uint32
}

func (t *tcpPublisher) send(ev Event) error {
	t.reqID++
	t.c.frame(msgPublish, t.reqID, func(b []byte) []byte { return appendEvent(b, ev) })
	if err := t.c.flush(); err != nil {
		return err
	}
	for {
		typ, p, err := t.c.next()
		if err != nil {
			return err
		}
		if len(p) < 4 || binary.BigEndian.Uint32(p) != t.reqID {
			continue
		}
		switch typ {
		case msgPublished:
			return nil
		case msgBusy:
			return errors.New("broker replied Busy")
		default:
			return fmt.Errorf("publish reply type %d: %q", typ, p[4:])
		}
	}
}

// scanSeqTs reads seq and ts out of an encoded event without building one:
// the receiver does this once per delivery and must stay cheap and frozen.
func scanSeqTs(b []byte) (seq, ts int64, ok bool) {
	if len(b) < 2 {
		return 0, 0, false
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	found := 0
	for i := 0; i < n; i++ {
		l, w := binary.Uvarint(b)
		if w <= 0 || uint64(len(b)-w) < l+1 {
			return 0, 0, false
		}
		name := b[w : w+int(l)]
		kind := b[w+int(l)]
		b = b[w+int(l)+1:]
		switch kind {
		case 1: // int
			v, w := binary.Varint(b)
			if w <= 0 {
				return 0, 0, false
			}
			b = b[w:]
			switch string(name) {
			case "seq":
				seq = v
				found++
			case "ts":
				ts = v
				found++
			}
		case 2: // float
			if len(b) < 8 {
				return 0, 0, false
			}
			b = b[8:]
		case 3: // string
			l, w := binary.Uvarint(b)
			if w <= 0 || uint64(len(b)-w) < l {
				return 0, 0, false
			}
			b = b[w+int(l):]
		case 4: // bool
			if len(b) < 1 {
				return 0, 0, false
			}
			b = b[1:]
		default:
			return 0, 0, false
		}
	}
	return seq, ts, found == 2
}

// opWindows counts completed operations per window of `width` ns from
// `from` on.
type opWindows struct {
	from, width int64
	counts      []atomic.Int64
}

// newOpWindows covers dur with whole windows; a dur shorter than one window
// is one window.
func newOpWindows(from int64, dur, width time.Duration) *opWindows {
	width = min(width, dur)
	return &opWindows{from: from, width: int64(width), counts: make([]atomic.Int64, int(dur/width))}
}

func (o *opWindows) count() {
	if o == nil {
		return
	}
	if w := (nowNs() - o.from) / o.width; w >= 0 && w < int64(len(o.counts)) {
		o.counts[w].Add(1)
	}
}

// perSecond is each window's rate.
func (o *opWindows) perSecond() []float64 {
	rates := make([]float64, len(o.counts))
	for i := range o.counts {
		rates[i] = float64(o.counts[i].Load()) / (float64(o.width) / 1e9)
	}
	return rates
}

// churnReqBase separates the request IDs of the churn loop from set-up's.
const churnReqBase = 1 << 24

// subscriber is the subscriber connection and its one goroutine. It carries
// every subscription of the workload by connection-local handle, and between
// pushed events it does whatever the publisher asked for through ctl: set
// up, churn, or stop.
type subscriber struct {
	c    *rawConn
	sink *sink
	pop  *population
	ctl  chan func() // run on the subscriber goroutine
	done chan error  // closed when the goroutine ends

	handleSub []int32 // handle → stored subscription + 1

	// set-up
	texts     []string
	sentSubs  int
	ackedSubs int
	setupDone chan struct{}

	// churn: Subscribe → Unsubscribe of fresh filters, churnDepth of them in
	// flight at a time
	churning   bool
	churnDepth int
	opPending  int
	opSince    int64 // of the request in flight when churnDepth is 1
	churnK     int
	churnIdle  chan struct{}
	opsIn      atomic.Pointer[opWindows] // where completed round trips are counted, if anywhere
	recordRTT  bool
	subRTT     []int64
	unsubRTT   []int64
	opErrs     int64
	unstable   int64 // deliveries to churned handles
	quit       bool
}

func newSubscriber(c *rawConn, k *sink, pop *population) *subscriber {
	u := &subscriber{c: c, sink: k, pop: pop, ctl: make(chan func(), 4), done: make(chan error, 1)}
	go func() { u.done <- u.run() }()
	return u
}

// do runs f on the subscriber goroutine, interrupting a blocked read.
func (u *subscriber) do(f func()) {
	u.ctl <- f
	u.c.nc.SetReadDeadline(time.Now())
}

func (u *subscriber) run() error {
	for !u.quit {
		typ, p, err := u.c.next()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				// Clear the deadline before draining ctl: a request that
				// arrives after the drain then interrupts the next read.
				u.c.nc.SetReadDeadline(time.Time{})
				for more := true; more; {
					select {
					case f := <-u.ctl:
						f()
					default:
						more = false
					}
				}
				continue
			}
			return err
		}
		switch typ {
		case msgEvent:
			u.onEvent(p)
		case msgSubscribed:
			if len(p) < 12 {
				return fmt.Errorf("short Subscribed reply")
			}
			u.onSubscribed(binary.BigEndian.Uint32(p), binary.BigEndian.Uint64(p[4:]))
		case msgOK:
			u.onUnsubscribed()
		case msgError:
			u.opErrs++
			fmt.Fprintf(os.Stderr, "subscriber: error reply: %q\n", p)
			if len(p) >= 4 && binary.BigEndian.Uint32(p) >= churnReqBase {
				u.opPending--
				u.nextChurnOp()
			}
		}
	}
	return nil
}

func (u *subscriber) onEvent(p []byte) {
	if len(p) < 8 {
		u.sink.led.stray++
		return
	}
	handle := binary.BigEndian.Uint64(p)
	seq, ts, ok := scanSeqTs(p[8:])
	if !ok || handle >= uint64(len(u.handleSub)) {
		if ok && handle >= uint64(len(u.handleSub)) {
			u.unstable++ // a churned handle: outside the stable store
			return
		}
		u.sink.led.stray++
		return
	}
	u.sink.deliver(int(u.handleSub[handle])-1, seq, ts)
}

// setup subscribes texts, pipelined in batches, and returns when the last
// reply is in.
func (u *subscriber) setup(texts []string) error {
	done := make(chan struct{})
	u.do(func() {
		u.texts, u.sentSubs, u.ackedSubs, u.setupDone = texts, 0, 0, done
		u.handleSub = make([]int32, len(texts)+1)
		u.sendSubscribes()
	})
	select {
	case <-done:
		return nil
	case err := <-u.done:
		return fmt.Errorf("subscriber ended during set-up: %v", err)
	case <-time.After(stallTimeout):
		return errors.New("set-up stalled")
	}
}

const setupBatch = 128

func (u *subscriber) sendSubscribes() {
	if u.sentSubs-u.ackedSubs > setupBatch/2 || u.sentSubs == len(u.texts) {
		return
	}
	for n := 0; n < setupBatch && u.sentSubs < len(u.texts); n++ {
		text := u.texts[u.sentSubs]
		u.sentSubs++
		u.c.frame(msgSubscribe, uint32(u.sentSubs), func(b []byte) []byte { return appendString(b, text) })
	}
	if err := u.c.flush(); err != nil {
		u.opErrs++
	}
}

func (u *subscriber) onSubscribed(reqID uint32, handle uint64) {
	if reqID >= churnReqBase {
		now := nowNs()
		if u.recordRTT {
			u.subRTT = append(u.subRTT, now-u.opSince)
		}
		u.opsIn.Load().count()
		u.opSince = now
		u.c.frame(msgUnsubscribe, reqID, func(b []byte) []byte { return appendU64(b, handle) })
		if err := u.c.flush(); err != nil {
			u.opErrs++
		}
		return
	}
	if handle < uint64(len(u.handleSub)) && int(reqID) <= len(u.texts) {
		u.handleSub[handle] = int32(reqID) // request i+1 subscribed texts[i]
	} else {
		u.opErrs++
	}
	u.ackedSubs++
	if u.ackedSubs == len(u.texts) {
		close(u.setupDone)
		return
	}
	u.sendSubscribes()
}

func (u *subscriber) onUnsubscribed() {
	if u.recordRTT {
		u.unsubRTT = append(u.unsubRTT, nowNs()-u.opSince)
	}
	u.opsIn.Load().count()
	u.opPending--
	u.nextChurnOp()
}

// nextChurnOp sends Subscribes until churnDepth filters are in flight, or
// reports idle once churn has been stopped and the last has come back.
func (u *subscriber) nextChurnOp() {
	if !u.churning {
		if u.opPending == 0 && u.churnIdle != nil {
			close(u.churnIdle)
			u.churnIdle = nil
		}
		return
	}
	if u.opPending >= u.churnDepth {
		return
	}
	for ; u.opPending < u.churnDepth; u.opPending++ {
		text := u.pop.churnText(u.churnK)
		u.churnK++
		u.c.frame(msgSubscribe, churnReqBase+uint32(u.churnK), func(b []byte) []byte { return appendString(b, text) })
	}
	u.opSince = nowNs()
	if err := u.c.flush(); err != nil {
		u.opErrs++
	}
}

// startChurn begins the Subscribe → Unsubscribe loop with depth filters in
// flight; stopChurn ends it after those and waits for them. Round-trip times
// can be recorded at depth 1 only.
func (u *subscriber) startChurn(depth int, recordRTT bool) {
	u.do(func() {
		u.churning, u.churnDepth, u.recordRTT = true, depth, recordRTT && depth == 1
		u.nextChurnOp()
	})
}

func (u *subscriber) stopChurn() error {
	idle := make(chan struct{})
	u.do(func() {
		u.churning, u.churnIdle = false, idle
		u.nextChurnOp()
	})
	select {
	case <-idle:
		return nil
	case err := <-u.done:
		return fmt.Errorf("subscriber ended during churn: %v", err)
	case <-time.After(stallTimeout):
		return errors.New("churn stalled")
	}
}

// stop ends the goroutine and closes the connection.
func (u *subscriber) stop() error {
	u.do(func() { u.quit = true })
	err := <-u.done
	u.c.nc.Close()
	return err
}
