package netrun

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"parsec/internal/fault"
)

// RetryPolicy is the real-time analogue of simexec's virtual-comm-thread
// recovery machine (PR 4): a sender considers a frame lost Timeout after
// its last transmission, waits a capped exponential backoff (Backoff,
// 2*Backoff, ... up to BackoffCap), and retransmits; after MaxRetries
// retransmissions the link — and the run — fails. The receiver's
// per-sender dedup makes the resulting at-least-once delivery safe.
type RetryPolicy struct {
	Timeout    time.Duration
	Backoff    time.Duration
	BackoffCap time.Duration
	MaxRetries int
}

// DefaultRetryPolicy returns the production defaults. The retry horizon
// (Timeout plus the backoff series) deliberately exceeds the
// coordinator's death-detection window, so a sender blocked on a dead
// peer survives long enough for the takeover broadcast to re-route its
// retained traffic instead of failing the run.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		Timeout:    100 * time.Millisecond,
		Backoff:    50 * time.Millisecond,
		BackoffCap: 400 * time.Millisecond,
		MaxRetries: 15,
	}
}

// backoffFor returns the wait before retransmission n (0-based).
func (p RetryPolicy) backoffFor(n int) time.Duration {
	b := p.Backoff
	for i := 0; i < n; i++ {
		b *= 2
		if b >= p.BackoffCap {
			return p.BackoffCap
		}
	}
	if b > p.BackoffCap {
		b = p.BackoffCap
	}
	return b
}

// SeverSpec closes one direction of one link after a number of frames:
// the scripted "sever a connection" of the chaos suite. The sender's
// reconnect-and-retransmit path must absorb it without losing a message.
type SeverSpec struct {
	From, To    int
	AfterFrames int
}

// injector wraps the discrete-event fault injector for concurrent use:
// fault.Injector mutates seeded RNG streams and was written for the
// single-threaded simulation engine, so every draw serializes here.
type injector struct {
	mu  sync.Mutex
	inj *fault.Injector
}

func newInjector(cfg *fault.Config) *injector {
	if cfg == nil {
		return nil
	}
	return &injector{inj: fault.New(*cfg)}
}

// transfer returns the seeded verdict for one send attempt.
func (j *injector) transfer(from, to int) fault.XferOutcome {
	if j == nil {
		return fault.XferOutcome{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.inj.Transfer(from, to)
}

// commCounters aggregates one process's wire activity; all fields are
// atomics because senders, receivers, and retransmit timers race.
type commCounters struct {
	msgsSent        atomic.Int64
	bytesSent       atomic.Int64
	acksReceived    atomic.Int64
	retries         atomic.Int64
	retransmitBytes atomic.Int64
	backoffNs       atomic.Int64
	dropsInjected   atomic.Int64
	ackDropsInj     atomic.Int64
	dupSuppressed   atomic.Int64
	reconnects      atomic.Int64
	severs          atomic.Int64

	transferOps   atomic.Int64 // activations + migrations (tile movement)
	transferBytes atomic.Int64
	accOps        atomic.Int64
	accBytes      atomic.Int64
	getOps        atomic.Int64
	getBytes      atomic.Int64
}

// pendingMsg is one unacknowledged frame awaiting ack or retransmission.
type pendingMsg struct {
	typ      byte
	id       uint64
	body     []byte
	attempts int       // retransmissions performed
	deadline time.Time // next loss-detection point
}

// retainedMsg is one activation kept for post-takeover replay.
type retainedMsg struct {
	typ  byte
	body []byte
}

// relChan is one outbound reliable link to a single peer: it owns the
// dialed connection, the unacked window, the retransmit timer, and the
// retained activation log. Data frames flow out; only acks flow back.
//
// All socket writes happen on the channel's writer goroutine, never
// under c.mu: a blocking write while holding the mutex deadlocks once
// the kernel buffers fill (sender holds mu blocked on write, the peer's
// receive loop blocks writing an ack back, and the ack reader that
// would drain it waits on mu). Unix sockets' small buffers hit this
// immediately; TCP merely hides it behind bigger buffers.
type relChan struct {
	tp   *transport
	dst  int
	addr string

	mu       sync.Mutex
	wcond    *sync.Cond // outbox gained frames, conn changed, or stopped
	conn     net.Conn
	outbox   [][]byte // encoded frames awaiting the writer goroutine
	nextID   uint64
	unacked  map[uint64]*pendingMsg
	retained []retainedMsg
	frames   int // frames written, for SeverSpec
	severed  bool
	stopped  bool
	dialing  bool
}

func (c *relChan) stop() {
	c.mu.Lock()
	c.stopped = true
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	c.wcond.Broadcast()
	c.mu.Unlock()
}

// send assigns a reliability id, retains activations for takeover
// replay, and attempts the first transmission. Loss is recovered by the
// retransmit timer; the call never blocks on the network beyond one
// write.
func (c *relChan) send(typ byte, body []byte) {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.nextID++
	p := &pendingMsg{typ: typ, id: c.nextID, body: body}
	c.unacked[p.id] = p
	if typ == msgActivate {
		c.retained = append(c.retained, retainedMsg{typ: typ, body: body})
	}
	c.writeLocked(p)
	c.mu.Unlock()

	c.tp.counters.msgsSent.Add(1)
	c.tp.counters.bytesSent.Add(int64(frameHeaderLen + len(body)))
}

// writeLocked stages one transmission attempt of a pending frame,
// consulting the fault injector: a Drop verdict skips it entirely (the
// timer retransmits), an AckDrop verdict sets the ack-suppress bit so
// the receiver provokes the duplicate path, and a Sever verdict due at
// this frame count is encoded as a nil outbox entry the writer turns
// into a connection close. Callers hold c.mu; the socket write itself
// happens on the writer goroutine.
func (c *relChan) writeLocked(p *pendingMsg) {
	p.deadline = time.Now().Add(c.tp.retry.Timeout)
	out := c.tp.inj.transfer(c.tp.local, c.dst)
	if out.Drop {
		c.tp.counters.dropsInjected.Add(1)
		return
	}
	suppress := false
	if out.AckDrop {
		suppress = true
		c.tp.counters.ackDropsInj.Add(1)
	}
	if sv := c.tp.sever; sv != nil && sv.From == c.tp.local && sv.To == c.dst {
		c.frames++
		if !c.severed && c.frames > sv.AfterFrames {
			c.severed = true
			c.tp.counters.severs.Add(1)
			c.outbox = append(c.outbox, nil) // sever marker: writer cuts the link here
			c.wcond.Broadcast()
			return
		}
	}
	c.outbox = append(c.outbox, appendFrame(nil, p.typ, p.id, suppress, p.body))
	c.wcond.Broadcast()
	if c.conn == nil {
		c.ensureDialLocked()
	}
}

// writeLoop is the channel's writer goroutine: it drains the outbox
// onto whatever connection is current, blocking on the kernel with no
// locks held. A failed or severed write drops the staged bytes — the
// frame stays in the unacked window, so loss detection retransmits it.
func (c *relChan) writeLoop() {
	defer c.tp.wg.Done()
	for {
		c.mu.Lock()
		for !c.stopped && (len(c.outbox) == 0 || c.conn == nil) {
			if len(c.outbox) > 0 {
				c.ensureDialLocked()
			}
			c.wcond.Wait()
		}
		if c.stopped {
			c.mu.Unlock()
			return
		}
		buf := c.outbox[0]
		c.outbox = c.outbox[1:]
		conn := c.conn
		c.mu.Unlock()

		if buf == nil { // sever marker
			c.dropConn(conn, true)
			continue
		}
		if _, err := conn.Write(buf); err != nil {
			c.dropConn(conn, false)
		}
	}
}

// dropConn retires a connection after a write failure or a scripted
// sever and, if frames remain owed, starts a redial.
func (c *relChan) dropConn(conn net.Conn, redial bool) {
	conn.Close()
	c.mu.Lock()
	if c.conn == conn {
		c.conn = nil
		if redial || len(c.unacked) > 0 {
			c.ensureDialLocked()
		}
	}
	c.mu.Unlock()
}

// ensureDialLocked starts a background dial if none is in flight.
func (c *relChan) ensureDialLocked() {
	if c.dialing || c.stopped {
		return
	}
	c.dialing = true
	c.tp.wg.Add(1)
	go c.dialLoop()
}

// dialLoop establishes (or re-establishes) the connection, sends the
// hello, and starts the ack reader. It retries with a short fixed pause
// until it succeeds or the channel stops.
func (c *relChan) dialLoop() {
	defer c.tp.wg.Done()
	for {
		c.mu.Lock()
		if c.stopped || c.conn != nil {
			c.dialing = false
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()

		conn, err := net.DialTimeout(c.tp.network, c.addr, time.Second)
		if err != nil {
			select {
			case <-c.tp.stopCh:
				c.mu.Lock()
				c.dialing = false
				c.mu.Unlock()
				return
			case <-time.After(20 * time.Millisecond):
			}
			continue
		}
		hello := appendFrame(nil, msgHello, 0, false, helloMsg{From: c.tp.local}.encode())
		if _, err := conn.Write(hello); err != nil {
			conn.Close()
			continue
		}
		c.mu.Lock()
		if c.stopped {
			conn.Close()
			c.dialing = false
			c.mu.Unlock()
			return
		}
		c.conn = conn
		c.dialing = false
		// Frames sent while the link was down sit in the unacked window;
		// restage them now rather than waiting out the loss-detection
		// timer. (Any copies still in the outbox arrive twice; the
		// receiver's dedup absorbs that.)
		for _, p := range c.unacked {
			c.writeLocked(p)
		}
		c.wcond.Broadcast()
		c.mu.Unlock()
		c.tp.counters.reconnects.Add(1)
		c.tp.wg.Add(1)
		go c.readAcks(conn)
		return
	}
}

// readAcks drains acknowledgment frames from one connection until it
// dies, then hands the channel back to the dialer.
func (c *relChan) readAcks(conn net.Conn) {
	defer c.tp.wg.Done()
	for {
		f, err := readFrame(conn)
		if err != nil {
			c.mu.Lock()
			if c.conn == conn {
				c.conn.Close()
				c.conn = nil
				if len(c.unacked) > 0 {
					c.ensureDialLocked()
				}
			}
			c.mu.Unlock()
			return
		}
		if f.typ != msgAck {
			continue
		}
		c.mu.Lock()
		if _, ok := c.unacked[f.id]; ok {
			delete(c.unacked, f.id)
			c.tp.counters.acksReceived.Add(1)
		}
		c.mu.Unlock()
	}
}

// tick is the loss-detection scan: every pending frame past its
// deadline is charged one retry, waits its capped backoff (folded into
// the next deadline rather than slept, so one timer serves all links),
// and is retransmitted. Exhausted retries fail the whole process — the
// simexec contract — unless the peer is under takeover re-routing.
func (c *relChan) tick(now time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return nil
	}
	for _, p := range c.unacked {
		if now.Before(p.deadline) {
			continue
		}
		if p.attempts >= c.tp.retry.MaxRetries &&
			!(c.tp.recoverDeadPeers && c.dst != coordRank) {
			return fmt.Errorf("netrun: rank %d -> %d: message %d (type %d) unacked after %d retries",
				c.tp.local, c.dst, p.id, p.typ, p.attempts)
		}
		backoff := c.tp.retry.backoffFor(p.attempts)
		p.attempts++
		c.tp.counters.retries.Add(1)
		c.tp.counters.backoffNs.Add(int64(backoff))
		c.tp.counters.retransmitBytes.Add(int64(frameHeaderLen + len(p.body)))
		c.writeLocked(p)
		p.deadline = p.deadline.Add(backoff) // extend past Timeout by the backoff
	}
	return nil
}

// drained reports whether every sent frame has been acknowledged. A
// stopped channel counts as drained: its peer is dead, its window can
// never be acked, and takeover already surrendered its retained log —
// holding the flush barrier on it would hang every live rank.
func (c *relChan) drained() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stopped || len(c.unacked) == 0
}

// takeRetained stops the channel and surrenders its retained activation
// log for replay to an heir.
func (c *relChan) takeRetained() []retainedMsg {
	c.mu.Lock()
	r := c.retained
	c.retained = nil
	c.mu.Unlock()
	c.stop()
	return r
}

// transport is one process's endpoint: a listener for inbound traffic,
// outbound reliable channels by destination, per-sender receive dedup,
// and the rank routing table that takeover rewrites.
type transport struct {
	local    int
	network  string // "tcp" or "unix"
	retry    RetryPolicy
	inj      *injector
	sever    *SeverSpec
	counters *commCounters
	// recoverDeadPeers (set when Config.Recover is on) keeps worker→worker
	// channels retrying at the backoff cap after MaxRetries instead of
	// failing the run: the coordinator's death-detection window is far
	// shorter than the retry horizon, so a genuinely dead peer gets this
	// channel redirected by takeover, while failing here would race the
	// takeover broadcast. Channels to the coordinator still fail hard.
	recoverDeadPeers bool

	ln     net.Listener
	stopCh chan struct{}
	wg     sync.WaitGroup

	// handler receives every deduplicated inbound data frame. It runs on
	// the inbound connection's goroutine; slow work must be handed off.
	// Set by serve.
	handler func(from int, f frame)
	// onSeen, if set, observes every inbound frame's sender before
	// dedup — the coordinator's liveness signal. Set by serve.
	onSeen func(from int)

	mu       sync.Mutex
	chans    map[int]*relChan
	routes   map[int]int // rank -> rank actually serving it (takeover)
	seen     map[int]map[uint64]bool
	sessions map[int]*session
	closed   bool
}

// session is one inbound connection with its ack-write lock.
type session struct {
	conn net.Conn
	mu   sync.Mutex
}

func (s *session) writeAck(id uint64) {
	buf := appendFrame(nil, msgAck, id, false, nil)
	s.mu.Lock()
	s.conn.Write(buf)
	s.mu.Unlock()
}

// newTransport opens a listener ("tcp" on 127.0.0.1, "unix" on the
// given socket path pattern) and starts accepting.
func newTransport(local int, network, listenAddr string, retry RetryPolicy, inj *injector, sever *SeverSpec) (*transport, error) {
	ln, err := net.Listen(network, listenAddr)
	if err != nil {
		return nil, fmt.Errorf("netrun: listen %s %s: %w", network, listenAddr, err)
	}
	tp := &transport{
		local:    local,
		network:  network,
		retry:    retry,
		inj:      inj,
		sever:    sever,
		counters: &commCounters{},
		ln:       ln,
		stopCh:   make(chan struct{}),
		chans:    make(map[int]*relChan),
		routes:   make(map[int]int),
		seen:     make(map[int]map[uint64]bool),
		sessions: make(map[int]*session),
	}
	return tp, nil
}

// serve installs the inbound frame handlers and starts accepting
// connections. Nothing is accepted before: a peer that dials a recycled
// address early waits in the listen backlog instead of racing the
// handler assignment.
func (tp *transport) serve(handler func(from int, f frame), onSeen func(from int)) {
	tp.handler, tp.onSeen = handler, onSeen
	tp.wg.Add(1)
	go tp.acceptLoop()
}

// addr returns the listener's address string.
func (tp *transport) addr() string { return tp.ln.Addr().String() }

func (tp *transport) acceptLoop() {
	defer tp.wg.Done()
	for {
		conn, err := tp.ln.Accept()
		if err != nil {
			return // listener closed
		}
		tp.wg.Add(1)
		go tp.serveConn(conn)
	}
}

// serveConn handles one inbound connection: hello, then data frames,
// each acked (unless suppressed) and deduplicated per sender.
func (tp *transport) serveConn(conn net.Conn) {
	defer tp.wg.Done()
	defer conn.Close()
	hello, err := readFrame(conn)
	if err != nil || hello.typ != msgHello {
		return
	}
	hm, err := decodeHello(hello.body)
	if err != nil {
		return
	}
	from := hm.From
	sess := &session{conn: conn}
	tp.mu.Lock()
	if tp.closed {
		tp.mu.Unlock()
		return
	}
	tp.sessions[from] = sess
	if tp.seen[from] == nil {
		tp.seen[from] = make(map[uint64]bool)
	}
	tp.mu.Unlock()
	if tp.onSeen != nil {
		tp.onSeen(from)
	}

	for {
		f, err := readFrame(conn)
		if err != nil {
			tp.mu.Lock()
			if tp.sessions[from] == sess {
				delete(tp.sessions, from)
			}
			tp.mu.Unlock()
			return
		}
		if tp.onSeen != nil {
			tp.onSeen(from)
		}
		if !f.suppressAck {
			sess.writeAck(f.id)
		}
		tp.mu.Lock()
		dup := tp.seen[from][f.id]
		if !dup {
			tp.seen[from][f.id] = true
		}
		tp.mu.Unlock()
		if dup {
			tp.counters.dupSuppressed.Add(1)
			continue
		}
		tp.handler(from, f)
	}
}

// chanTo returns (creating if needed) the outbound channel to a rank,
// following the takeover routing table.
func (tp *transport) chanTo(rank int) *relChan {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return tp.chanToLocked(rank)
}

func (tp *transport) chanToLocked(rank int) *relChan {
	if r, ok := tp.routes[rank]; ok {
		rank = r
	}
	c := tp.chans[rank]
	if c == nil {
		panic(fmt.Sprintf("netrun: rank %d has no channel to %d", tp.local, rank))
	}
	return c
}

// connect registers the outbound channel to a peer's address. The
// actual dial happens lazily on first send.
func (tp *transport) connect(rank int, addr string) {
	tp.mu.Lock()
	if tp.chans[rank] == nil {
		c := &relChan{tp: tp, dst: rank, addr: addr, unacked: make(map[uint64]*pendingMsg)}
		c.wcond = sync.NewCond(&c.mu)
		tp.chans[rank] = c
		tp.wg.Add(1)
		go c.writeLoop()
	}
	tp.mu.Unlock()
}

// sendTo delivers one message reliably to a rank (through the routing
// table).
func (tp *transport) sendTo(rank int, typ byte, body []byte) {
	tp.chanTo(rank).send(typ, body)
}

// redirect re-routes a dead rank to its heir and returns the retained
// activation log owed to the heir. Idempotent per dead rank.
func (tp *transport) redirect(dead, heir int) []retainedMsg {
	tp.mu.Lock()
	if r, ok := tp.routes[dead]; ok && r == heir {
		tp.mu.Unlock()
		return nil
	}
	tp.routes[dead] = heir
	c := tp.chans[dead]
	tp.mu.Unlock()
	if c == nil || dead == tp.local {
		return nil
	}
	return c.takeRetained()
}

// drained reports whether every outbound channel has an empty unacked
// window.
func (tp *transport) drained() bool {
	tp.mu.Lock()
	chans := make([]*relChan, 0, len(tp.chans))
	for _, c := range tp.chans {
		chans = append(chans, c)
	}
	tp.mu.Unlock()
	for _, c := range chans {
		if !c.drained() {
			return false
		}
	}
	return true
}

// runRetryTimer drives loss detection for every channel until the
// transport stops; the first exhausted-retries error is reported once
// through fail.
func (tp *transport) runRetryTimer(fail func(error)) {
	tp.wg.Add(1)
	go func() {
		defer tp.wg.Done()
		interval := tp.retry.Timeout / 4
		if interval < time.Millisecond {
			interval = time.Millisecond
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-tp.stopCh:
				return
			case now := <-t.C:
				tp.mu.Lock()
				chans := make([]*relChan, 0, len(tp.chans))
				for _, c := range tp.chans {
					chans = append(chans, c)
				}
				tp.mu.Unlock()
				for _, c := range chans {
					if err := c.tick(now); err != nil {
						fail(err)
						return
					}
				}
			}
		}
	}()
}

// close tears the endpoint down: listener, inbound sessions, outbound
// channels, timer.
func (tp *transport) close() {
	tp.mu.Lock()
	if tp.closed {
		tp.mu.Unlock()
		return
	}
	tp.closed = true
	sessions := make([]*session, 0, len(tp.sessions))
	for _, s := range tp.sessions {
		sessions = append(sessions, s)
	}
	chans := make([]*relChan, 0, len(tp.chans))
	for _, c := range tp.chans {
		chans = append(chans, c)
	}
	tp.mu.Unlock()

	close(tp.stopCh)
	tp.ln.Close()
	for _, s := range sessions {
		s.conn.Close()
	}
	for _, c := range chans {
		c.stop()
	}
	tp.wg.Wait()
}
