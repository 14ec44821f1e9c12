package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"sync"
	"time"

	"mndmst/internal/obs"
	"mndmst/internal/retry"
	"mndmst/internal/wire"
)

// TCPConfig configures one worker's endpoint of a real multi-process
// cluster. Only Coordinator is required.
type TCPConfig struct {
	// Coordinator is the rendezvous address every worker dials first.
	Coordinator string
	// Listen is the address this worker accepts peer connections on
	// (default "127.0.0.1:0" — loopback, kernel-assigned port). For
	// multi-host clusters it must name an interface peers can reach.
	Listen string
	// Advertise overrides the address peers are told to dial (default:
	// the bound listen address). Needed when Listen is a wildcard or the
	// worker sits behind NAT.
	Advertise string
	// DialTimeout bounds connection establishment — the coordinator dial,
	// the rendezvous, and the peer mesh — with exponential-backoff retry
	// inside the budget (default 10s).
	DialTimeout time.Duration
	// SendTimeout is the per-frame write deadline (default 10s).
	SendTimeout time.Duration
	// HeartbeatInterval is how often an idle connection proves liveness
	// (default 500ms). Must be well below PeerTimeout.
	HeartbeatInterval time.Duration
	// PeerTimeout is the silence threshold: a peer that has sent neither a
	// frame nor a heartbeat for this long is declared dead and every
	// pending Recv from it errors out (default 5s).
	PeerTimeout time.Duration
	// SendQueueBytes bounds the payload bytes queued per peer for
	// asynchronous delivery (default 32 MiB). A full queue applies
	// backpressure to Isend callers; at least one frame is always admitted
	// so an oversized frame cannot wedge the sender.
	SendQueueBytes int64
	// SendQueueTimeout bounds how long Isend blocks on a full outbound
	// queue and how long Send waits for its flush before surfacing a
	// SendQueueFullError (default: SendTimeout).
	SendQueueTimeout time.Duration
	// RecvWindowBytes, when positive, pauses the per-peer reader once that
	// many payload bytes sit undelivered in the inbox, propagating
	// backpressure to the sender instead of buffering without bound
	// (default 0: unbounded, the historical behaviour).
	RecvWindowBytes int64
	// SocketBufferBytes, when positive, caps the kernel send and receive
	// buffers per connection (best effort). Mostly for tests that need
	// bounded end-to-end buffering to reproduce flow-control behaviour
	// deterministically; production runs should leave the OS autotuning on.
	SocketBufferBytes int
	// RetrySeed drives the deterministic jitter on dial/rendezvous
	// backoff. Jitter is what keeps N workers restarted together from
	// hammering the coordinator in lockstep; the seed is what lets a test
	// replay the exact schedule. 0 (the default) derives a per-process
	// seed from the wall clock — production workers decorrelate for free.
	RetrySeed int64
	// Cancel, when non-nil, aborts in-progress dial/rendezvous backoff
	// waits as soon as it is closed, so a teardown (or a draining daemon)
	// never sleeps out a pending backoff. Closing it does not affect an
	// established endpoint.
	Cancel <-chan struct{}
	// Metrics, when non-nil, receives the endpoint's transport counters:
	// per-peer frames/bytes in both directions, send-queue high-water
	// marks, heartbeats, peer timeouts, and dial retries. Registries are
	// per-process by convention — two endpoints sharing one registry
	// would merge their per-peer series.
	Metrics *obs.Registry
}

// defaultSendQueueBytes is the per-peer outbound queue bound when
// TCPConfig.SendQueueBytes is unset.
const defaultSendQueueBytes = 32 << 20

func (c TCPConfig) withDefaults() TCPConfig {
	if c.Listen == "" {
		c.Listen = "127.0.0.1:0"
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 10 * time.Second
	}
	if c.SendTimeout <= 0 {
		c.SendTimeout = 10 * time.Second
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 5 * time.Second
	}
	if c.SendQueueBytes <= 0 {
		c.SendQueueBytes = defaultSendQueueBytes
	}
	if c.SendQueueTimeout <= 0 {
		c.SendQueueTimeout = c.SendTimeout
	}
	if c.RetrySeed == 0 {
		c.RetrySeed = time.Now().UnixNano()
	}
	return c
}

// TCP is the real-socket Transport endpoint of one rank.
type TCP struct {
	rank int
	p    int
	cfg  TCPConfig
	ln   net.Listener

	peers   []*tcpPeer // indexed by rank; peers[rank] == nil for self
	selfBox *queue

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// tcpPeer is one pooled connection to a remote rank: a single long-lived
// TCP stream carrying both directions' frames, a reader goroutine feeding
// the inbox, and a writer goroutine draining the bounded outbound queue
// (sending heartbeats when it is idle).
type tcpPeer struct {
	rank  int
	inbox *queue
	out   *sendq
	ready chan struct{} // closed once conn is attached
	m     peerMetrics   // zero-valued (all nil, no-op) without a registry

	mu   sync.Mutex // guards conn and err; never held across a socket write
	conn net.Conn
	err  error // sticky death marker
}

// peerMetrics are one peer link's counter handles, resolved once at mesh
// construction so the data path stays lock-free. All fields are nil-safe
// no-ops when no registry is configured.
type peerMetrics struct {
	framesSent *obs.Counter
	bytesSent  *obs.Counter
	framesRecv *obs.Counter
	bytesRecv  *obs.Counter
	heartbeats *obs.Counter
	timeouts   *obs.Counter
}

// peerMetricsFor registers the per-peer transport families and resolves
// this link's handles. Byte counters measure wire payload bytes (the
// 8-byte virtual-arrival header included, frame envelope excluded), so
// the sender's and receiver's counts of one link match exactly.
func peerMetricsFor(reg *obs.Registry, rank int) peerMetrics {
	if reg == nil {
		return peerMetrics{}
	}
	peer := strconv.Itoa(rank)
	return peerMetrics{
		framesSent: reg.CounterVec("mndmst_transport_frames_sent_total",
			"data frames handed to the kernel, by destination rank", "peer").With(peer),
		bytesSent: reg.CounterVec("mndmst_transport_bytes_sent_total",
			"payload bytes handed to the kernel, by destination rank", "peer").With(peer),
		framesRecv: reg.CounterVec("mndmst_transport_frames_received_total",
			"data frames delivered to the inbox, by source rank", "peer").With(peer),
		bytesRecv: reg.CounterVec("mndmst_transport_bytes_received_total",
			"payload bytes delivered to the inbox, by source rank", "peer").With(peer),
		heartbeats: reg.CounterVec("mndmst_transport_heartbeats_sent_total",
			"liveness heartbeats sent on idle links, by peer rank", "peer").With(peer),
		timeouts: reg.CounterVec("mndmst_transport_peer_timeouts_total",
			"watchdog expiries: no frame or heartbeat within PeerTimeout, by peer rank", "peer").With(peer),
	}
}

// DialTCP joins a cluster: it listens for peers, registers with the
// coordinator, receives its rank assignment and the peer address table,
// and establishes the full connection mesh before returning. The returned
// endpoint is ready for Send/Recv to every rank.
func DialTCP(cfg TCPConfig) (*TCP, error) {
	cfg = cfg.withDefaults()
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("transport: no coordinator address")
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", cfg.Listen, err)
	}
	advertise := cfg.Advertise
	if advertise == "" {
		advertise = ln.Addr().String()
	}

	// Rendezvous: hello → assignment.
	rank, p, addrs, err := rendezvousTCP(cfg, advertise)
	if err != nil {
		ln.Close() //lint:droperr teardown after rendezvous failure; that error is the report
		return nil, err
	}

	t := &TCP{
		rank:    rank,
		p:       p,
		cfg:     cfg,
		ln:      ln,
		peers:   make([]*tcpPeer, p),
		selfBox: newQueue(),
		closed:  make(chan struct{}),
	}
	sendqHW := cfg.Metrics.GaugeVec("mndmst_transport_sendq_highwater_bytes",
		"peak queued payload bytes awaiting the writer, by destination rank", "peer")
	for i := 0; i < p; i++ {
		if i == rank {
			continue
		}
		peer := &tcpPeer{
			rank:  i,
			inbox: newQueue(),
			out:   newSendq(cfg.SendQueueBytes),
			ready: make(chan struct{}),
			m:     peerMetricsFor(cfg.Metrics, i),
		}
		peer.out.hw = sendqHW.With(strconv.Itoa(i))
		t.peers[i] = peer
	}

	// Accept inbound connections from higher-ranked peers…
	t.wg.Add(1)
	go t.acceptLoop()

	// …and dial every lower-ranked peer, so each unordered pair shares
	// exactly one pooled connection (dialer = higher rank).
	deadline := time.Now().Add(cfg.DialTimeout)
	for i := 0; i < rank; i++ {
		conn, err := dialRetry(addrs[i], deadline, dialRetryCounter(cfg.Metrics),
			backoffPolicy(10*time.Millisecond, cfg.RetrySeed+seedOffsetPeerDial+int64(i)), cfg.Cancel)
		if err != nil {
			t.Close() //lint:droperr Close never fails; the dial error is the report
			return nil, fmt.Errorf("transport: rank %d: peer %d: %w", rank, i, err)
		}
		ident := wire.AppendUint64(nil, protocolVersion)
		ident = wire.AppendUint64(ident, uint64(rank))
		// Arm the write deadline before identifying; a failure here would
		// leave the frame write unbounded, so it is an identify failure too.
		err = conn.SetWriteDeadline(deadline)
		if err == nil {
			err = wire.WriteFrame(conn, tagIdent, ident)
		}
		if err == nil {
			err = conn.SetWriteDeadline(time.Time{})
		}
		if err != nil {
			conn.Close() //lint:droperr teardown of the failed connection; err is the report
			t.Close()    //lint:droperr Close never fails; err is the report
			return nil, fmt.Errorf("transport: rank %d: identify to peer %d: %w", rank, i, err)
		}
		t.attach(t.peers[i], conn)
	}

	// The mesh is complete once every peer (dialed and accepted) is ready.
	for i, peer := range t.peers {
		if peer == nil {
			continue
		}
		select {
		case <-peer.ready:
		case <-cfg.Cancel:
			t.Close() //lint:droperr Close never fails; the cancellation is the report
			return nil, fmt.Errorf("transport: rank %d: awaiting peer %d: %w", rank, i, ErrDialCanceled)
		case <-time.After(time.Until(deadline)):
			t.Close() //lint:droperr Close never fails; the timeout is the report
			return nil, fmt.Errorf("transport: rank %d: peer %d never connected within %v", rank, i, cfg.DialTimeout)
		}
	}
	return t, nil
}

// ErrDialCanceled reports a dial or rendezvous backoff wait aborted by
// TCPConfig.Cancel: the caller tore the join attempt down before the
// deadline. It wraps the last network error, so the reason the backoff
// was pending at all stays diagnosable.
var ErrDialCanceled = errors.New("transport: dial canceled by caller")

// backoffPolicy is the shared jittered schedule for the dial and
// rendezvous loops: exponential from base, capped at 500ms, with 50%
// downward jitter so co-restarted workers spread out instead of
// re-dialing the coordinator in lockstep. The seed makes the schedule
// replayable; callers decorrelate related loops with distinct offsets.
func backoffPolicy(base time.Duration, seed int64) retry.Policy {
	return retry.Policy{
		BaseDelay:  base,
		MaxDelay:   500 * time.Millisecond,
		Multiplier: 2,
		Jitter:     0.5,
		Seed:       seed,
	}
}

// sleepBackoff waits out one backoff step, returning ErrDialCanceled the
// moment cancel closes — teardown must never sit out a pending backoff.
// A nil cancel channel never fires, preserving plain deadline behaviour.
func sleepBackoff(d time.Duration, cancel <-chan struct{}) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-cancel:
		return ErrDialCanceled
	}
}

// Seed offsets decorrelating the jitter draws of the per-endpoint retry
// loops: the rendezvous loop uses RetrySeed itself, the coordinator dial
// and each peer dial derive distinct streams from it.
const (
	seedOffsetCoordinatorDial = 1
	seedOffsetPeerDial        = 2 // + peer rank
)

// rendezvousTCP performs the coordinator handshake, retrying transient
// network failures under the jittered backoff policy inside the
// DialTimeout budget. The handshake is idempotent on the coordinator side
// — a worker whose connection died mid-rendezvous re-advertises the same
// listen address and the coordinator replaces the dead registration — so
// retrying cannot produce a duplicate rank. Protocol errors (version or
// frame mismatches) are never retried: they mean a misconfigured cluster,
// not a flaky link.
func rendezvousTCP(cfg TCPConfig, advertise string) (rank, p int, addrs []string, err error) {
	deadline := time.Now().Add(cfg.DialTimeout)
	pol := backoffPolicy(25*time.Millisecond, cfg.RetrySeed)
	for attempt := 0; ; attempt++ {
		rank, p, addrs, err = rendezvousOnce(cfg, advertise, deadline)
		if err == nil || !retryableRendezvousError(err) {
			return rank, p, addrs, err
		}
		d := pol.Backoff(attempt)
		if time.Now().Add(d).After(deadline) {
			return rank, p, addrs, err
		}
		if serr := sleepBackoff(d, cfg.Cancel); serr != nil {
			return 0, 0, nil, fmt.Errorf("transport: rendezvous: %w (last attempt: %w)", serr, err)
		}
	}
}

// retryableRendezvousError reports whether a rendezvous failure is a
// transient network condition worth retrying (connection refused or reset,
// a coordinator that closed mid-handshake) rather than a protocol-level
// rejection that every retry would reproduce.
func retryableRendezvousError(err error) bool {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe)
}

// rendezvousOnce performs one coordinator handshake attempt.
func rendezvousOnce(cfg TCPConfig, advertise string, deadline time.Time) (rank, p int, addrs []string, err error) {
	conn, err := dialRetry(cfg.Coordinator, deadline, dialRetryCounter(cfg.Metrics),
		backoffPolicy(10*time.Millisecond, cfg.RetrySeed+seedOffsetCoordinatorDial), cfg.Cancel)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("transport: coordinator %s: %w", cfg.Coordinator, err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(cfg.DialTimeout)); err != nil {
		return 0, 0, nil, fmt.Errorf("transport: arm rendezvous deadline: %w", err)
	}

	hello := wire.AppendUint64(nil, protocolVersion)
	hello = wire.AppendBytes(hello, []byte(advertise))
	if err := wire.WriteFrame(conn, tagHello, hello); err != nil {
		return 0, 0, nil, fmt.Errorf("transport: hello: %w", err)
	}
	// The assignment only arrives once all P workers have joined, which can
	// take much longer than one dial — wait up to the full rendezvous span.
	if err := conn.SetDeadline(time.Now().Add(cfg.DialTimeout + cfg.PeerTimeout)); err != nil {
		return 0, 0, nil, fmt.Errorf("transport: arm rendezvous deadline: %w", err)
	}
	tag, payload, err := wire.ReadFrame(conn)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("transport: awaiting rank assignment: %w", err)
	}
	if tag != tagAssign {
		return 0, 0, nil, fmt.Errorf("transport: expected assignment frame, got tag %d", tag)
	}
	r64, payload, err := wire.TakeUint64(payload)
	if err != nil {
		return 0, 0, nil, err
	}
	p64, payload, err := wire.TakeUint64(payload)
	if err != nil {
		return 0, 0, nil, err
	}
	if p64 == 0 || r64 >= p64 || p64 > 1<<20 {
		return 0, 0, nil, fmt.Errorf("transport: invalid assignment rank=%d p=%d", r64, p64)
	}
	addrs = make([]string, p64)
	for i := range addrs {
		var a []byte
		a, payload, err = wire.TakeBytes(payload)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("transport: peer table: %w", err)
		}
		addrs[i] = string(a)
	}
	return int(r64), int(p64), addrs, nil
}

// dialRetryCounter resolves the shared dial-retry counter (nil without a
// registry; the registry deduplicates repeated resolutions).
func dialRetryCounter(reg *obs.Registry) *obs.Counter {
	return reg.Counter("mndmst_transport_dial_retries_total",
		"failed coordinator/peer dial attempts that were retried with backoff")
}

// dialRetry dials addr under pol's jittered backoff schedule until the
// deadline, counting each failed-and-retried attempt on retries
// (nil-safe). A close of cancel aborts the current backoff wait with
// ErrDialCanceled wrapping the last dial error.
func dialRetry(addr string, deadline time.Time, retries *obs.Counter, pol retry.Policy, cancel <-chan struct{}) (net.Conn, error) {
	for attempt := 0; ; attempt++ {
		d := net.Dialer{Deadline: deadline}
		conn, err := d.Dial("tcp", addr)
		if err == nil {
			return conn, nil
		}
		b := pol.Backoff(attempt)
		if time.Now().Add(b).After(deadline) {
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		retries.Inc()
		if serr := sleepBackoff(b, cancel); serr != nil {
			return nil, fmt.Errorf("dial %s: %w (last attempt: %w)", addr, serr, err)
		}
	}
}

// acceptLoop attaches inbound connections from higher-ranked peers.
func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if err := conn.SetReadDeadline(time.Now().Add(t.cfg.DialTimeout)); err != nil {
			conn.Close() //lint:droperr rejecting a connection we could not arm a deadline on
			continue
		}
		tag, payload, err := wire.ReadFrame(conn)
		if err != nil || tag != tagIdent {
			conn.Close() //lint:droperr rejecting an unidentified connection
			continue
		}
		ver, payload, err := wire.TakeUint64(payload)
		if err != nil || ver != protocolVersion {
			conn.Close() //lint:droperr rejecting a version-mismatched connection
			continue
		}
		r64, _, err := wire.TakeUint64(payload)
		if err != nil || r64 >= uint64(t.p) || int(r64) <= t.rank {
			conn.Close() //lint:droperr rejecting a connection with an invalid rank
			continue
		}
		if err := conn.SetReadDeadline(time.Time{}); err != nil {
			conn.Close() //lint:droperr rejecting a connection we could not disarm
			continue
		}
		peer := t.peers[r64]
		peer.mu.Lock()
		dup := peer.conn != nil
		peer.mu.Unlock()
		if dup {
			conn.Close() //lint:droperr rejecting a duplicate connection for an attached peer
			continue
		}
		t.attach(peer, conn)
	}
}

// attach wires a connection to its peer slot and starts the reader and
// writer goroutines.
func (t *TCP) attach(p *tcpPeer, conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) //lint:droperr best-effort latency tweak; Nagle on is merely slower
		if b := t.cfg.SocketBufferBytes; b > 0 {
			tc.SetReadBuffer(b)  //lint:droperr best-effort buffer sizing; OS default is merely bigger
			tc.SetWriteBuffer(b) //lint:droperr best-effort buffer sizing; OS default is merely bigger
		}
	}
	p.mu.Lock()
	p.conn = conn
	p.mu.Unlock()
	close(p.ready)
	t.wg.Add(2)
	go t.readLoop(p)
	go t.writeLoop(p)
}

// readLoop turns the peer's frame stream into inbox messages. A read
// deadline of PeerTimeout doubles as the heartbeat watchdog: a healthy but
// idle peer refreshes it with heartbeat frames.
func (t *TCP) readLoop(p *tcpPeer) {
	defer t.wg.Done()
	br := bufio.NewReaderSize(p.conn, 64<<10)
	for {
		// Receive-window flow control: once the inbox holds RecvWindowBytes
		// of undelivered payload, stop reading until the application drains
		// it. The pause deliberately happens *before* arming the watchdog —
		// a full window means we are the slow party, not the peer — and the
		// kernel buffers filling up is exactly the backpressure signal the
		// peer's bounded send queue is designed to absorb.
		if w := t.cfg.RecvWindowBytes; w > 0 {
			if err := p.inbox.waitBelow(w); err != nil {
				return // peer already failed; nothing left to deliver into
			}
		}
		// A failed watchdog arm would let a dead peer hang us forever:
		// treat it as the peer's death, not a condition to shrug off.
		if err := p.conn.SetReadDeadline(time.Now().Add(t.cfg.PeerTimeout)); err != nil {
			t.failPeer(p, fmt.Errorf("arm read watchdog: %w", err))
			return
		}
		tag, payload, err := wire.ReadFrame(br)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				p.m.timeouts.Inc()
				err = fmt.Errorf("no frame or heartbeat for %v", t.cfg.PeerTimeout)
			}
			t.failPeer(p, err)
			return
		}
		if tag == tagHeartbeat {
			continue
		}
		if len(payload) < 8 {
			t.failPeer(p, fmt.Errorf("frame from rank %d lacks arrival header", p.rank))
			return
		}
		p.m.framesRecv.Inc()
		p.m.bytesRecv.Add(int64(len(payload)))
		arrival := math.Float64frombits(binary.LittleEndian.Uint64(payload))
		p.inbox.put(Message{Tag: tag, Arrival: arrival, Data: payload[8:]})
	}
}

// writeLoop is the peer's single writer goroutine: it drains the bounded
// outbound queue onto the socket, and proves liveness with a heartbeat
// frame whenever the queue stays idle for a HeartbeatInterval. Because all
// socket writes funnel through this one goroutine, an Isend caller never
// sits inside a kernel `write` — the blocking happens here, bounded by
// SendTimeout, while the rank program stays free to post receives.
func (t *TCP) writeLoop(p *tcpPeer) {
	defer t.wg.Done()
	for {
		f, ok, exit := p.out.take(t.cfg.HeartbeatInterval)
		if exit {
			return // queue failed, or closed and fully drained
		}
		if !ok {
			// Idle: feed the peer's watchdog.
			if t.writeFrame(p, tagHeartbeat, nil) != nil {
				return // writeFrame already failed the peer and the queue
			}
			p.m.heartbeats.Inc()
			continue
		}
		if t.writeFrame(p, f.tag, f.payload) != nil {
			p.out.abandon()
			return // frames in flight are lost with the connection
		}
		p.m.framesSent.Inc()
		p.m.bytesSent.Add(int64(len(f.payload)))
		p.out.complete()
	}
}

// writeFrame serializes one frame onto the peer's pooled connection. Only
// the writer goroutine (and the pre-attach identify handshake) calls it, so
// no lock is held across the blocking write; p.mu guards only the conn/err
// snapshot, which keeps failPeer from ever waiting on a wedged write.
func (t *TCP) writeFrame(p *tcpPeer, tag int32, payload []byte) error {
	p.mu.Lock()
	conn, errSticky := p.conn, p.err
	p.mu.Unlock()
	if errSticky != nil {
		return &PeerDeadError{Rank: p.rank, Cause: errSticky}
	}
	// A write with no deadline could block forever on a wedged peer, so a
	// failed arm is handled exactly like a failed write.
	err := conn.SetWriteDeadline(time.Now().Add(t.cfg.SendTimeout))
	if err == nil {
		err = wire.WriteFrame(conn, tag, payload)
	}
	if err != nil {
		t.failPeer(p, err)
		return &PeerDeadError{Rank: p.rank, Cause: err}
	}
	return nil
}

// failPeer marks a peer dead: its connection closes (unblocking a wedged
// writer), queued outbound frames are dropped, and every pending and future
// Recv, Isend, and flush against it returns a PeerDeadError. The first
// cause is kept.
func (t *TCP) failPeer(p *tcpPeer, cause error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = cause
	}
	conn := p.conn
	p.mu.Unlock()
	if conn != nil {
		conn.Close() //lint:droperr teardown of a dead peer; cause is the report
	}
	dead := &PeerDeadError{Rank: p.rank, Cause: cause}
	p.inbox.fail(dead)
	p.out.fail(dead)
}

// Rank reports this endpoint's assigned rank.
func (t *TCP) Rank() int { return t.rank }

// P reports the cluster size.
func (t *TCP) P() int { return t.p }

// Isend frames m — the virtual arrival time ahead of the payload, so the
// receiver's simulated clock advances exactly as it would in-process — and
// enqueues it on dst's bounded outbound queue for the writer goroutine to
// deliver. It blocks only under backpressure: a queue that stays full past
// SendQueueTimeout yields a SendQueueFullError, and a dead peer a
// PeerDeadError, so a misbehaving destination becomes a diagnosable rank
// error instead of a silent wedge.
func (t *TCP) Isend(dst int, m Message) error {
	if dst < 0 || dst >= t.p {
		return fmt.Errorf("transport: send to invalid rank %d of %d", dst, t.p)
	}
	select {
	case <-t.closed:
		return ErrClosed
	default:
	}
	if dst == t.rank {
		t.selfBox.put(m)
		return nil
	}
	payload := make([]byte, 0, 8+len(m.Data))
	payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(m.Arrival))
	payload = append(payload, m.Data...)
	timeout := t.cfg.SendQueueTimeout
	err := t.peers[dst].out.put(outFrame{tag: m.Tag, payload: payload}, time.Now().Add(timeout))
	if _, full := err.(errQueueTimeout); full {
		return &SendQueueFullError{Rank: dst, Wait: timeout}
	}
	return err
}

// Send is Isend plus a flush: it returns once every frame enqueued to dst
// so far — this one included — has been handed to the kernel. Per-pair FIFO
// order with earlier Isends is preserved because both share the writer's
// single ordered queue.
func (t *TCP) Send(dst int, m Message) error {
	if err := t.Isend(dst, m); err != nil {
		return err
	}
	if dst == t.rank {
		return nil
	}
	timeout := t.cfg.SendQueueTimeout
	err := t.peers[dst].out.flush(time.Now().Add(timeout))
	if _, full := err.(errQueueTimeout); full {
		return &SendQueueFullError{Rank: dst, Wait: timeout}
	}
	return err
}

// Recv blocks for the next message from src; it errors out (instead of
// hanging) once src is dead or the endpoint is closed.
func (t *TCP) Recv(src int) (Message, error) {
	if src < 0 || src >= t.p {
		return Message{}, fmt.Errorf("transport: recv from invalid rank %d of %d", src, t.p)
	}
	if src == t.rank {
		return t.selfBox.take()
	}
	return t.peers[src].inbox.take()
}

// Close tears the endpoint down: outbound queues stop accepting frames and
// get a bounded window to drain onto the wire (so a Close right after an
// Isend does not eat the message), then the listener and every peer
// connection close and all pending Recvs error with ErrClosed.
func (t *TCP) Close() error {
	t.closeOnce.Do(func() {
		close(t.closed)
		// Graceful drain, bounded by one shared absolute deadline so a
		// wedged peer cannot stretch teardown to peers × timeout.
		drain := t.cfg.SendTimeout
		if drain > maxCloseDrain {
			drain = maxCloseDrain
		}
		deadline := time.Now().Add(drain)
		for _, p := range t.peers {
			if p != nil {
				p.out.closeq()
			}
		}
		for _, p := range t.peers {
			if p != nil {
				p.out.flush(deadline) //lint:droperr best-effort drain on teardown; Close always reports nil
			}
		}
		t.ln.Close() //lint:droperr best-effort teardown; Close always reports nil
		for _, p := range t.peers {
			if p != nil {
				t.failPeer(p, ErrClosed)
			}
		}
		t.selfBox.fail(ErrClosed)
	})
	return nil
}

// Abort fails the whole endpoint with cause, immediately and without the
// graceful drain Close performs: every peer connection closes (which is
// also how the abort reaches remote ranks — their read loops fail within a
// socket round trip, far faster than the heartbeat watchdog), queued
// outbound frames are dropped, undelivered inbound messages are discarded,
// and every pending and future Send, Isend, and Recv returns an error
// carrying cause. Idempotent; the first cause wins per peer.
func (t *TCP) Abort(cause error) {
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		if p.err == nil {
			p.err = cause
		}
		conn := p.conn
		p.mu.Unlock()
		if conn != nil {
			conn.Close() //lint:droperr teardown of an aborted peer; cause is the report
		}
		p.inbox.failNow(cause)
		p.out.fail(cause)
	}
	t.selfBox.failNow(cause)
	t.ln.Close() //lint:droperr best-effort teardown; cause is the report
}

// maxCloseDrain caps how long Close waits for queued asynchronous sends to
// reach the kernel before tearing connections down.
const maxCloseDrain = 2 * time.Second
