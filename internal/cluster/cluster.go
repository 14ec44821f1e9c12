// Package cluster simulates the distributed-memory machine the paper runs
// on. Each rank is a goroutine with a private (by convention) address space
// that communicates only through the cluster's message transport, exactly
// mirroring an MPI program's structure: point-to-point sends and receives,
// barriers, and allreduce collectives.
//
// Time is virtual. Every rank carries a clock in simulated seconds:
// Compute advances it by modeled kernel time, sends and receives advance it
// by the α–β cost of the transfer (including waiting for the sender), and
// collectives synchronize all clocks to the maximum plus the collective's
// modeled cost. Messages carry their virtual arrival times, so the final
// clock readings are deterministic — independent of the Go scheduler —
// as long as the simulated program itself is deterministic (receives name
// their source rank explicitly; there is no wildcard receive).
//
// Delivery is pluggable (internal/transport): the default in-process
// backend runs every rank as a goroutine in one address space, while
// NewDistributed attaches one OS process per rank over a real network
// transport. The rank program and its virtual clocks are identical either
// way; a distributed run additionally records real wall-clock time per
// phase.
package cluster

import (
	"fmt"
	"sync"
	"time"

	"mndmst/internal/cost"
	"mndmst/internal/transport"
)

// Cluster is a simulated machine of P ranks sharing a communication model.
// In the default in-process mode it hosts all P ranks; in distributed mode
// it hosts exactly one rank of a P-process cluster.
type Cluster struct {
	p    int
	comm cost.CommModel
	// local lists the rank ids this Cluster executes; eps[i] is the
	// transport endpoint of local[i].
	local []int
	eps   []transport.Transport
	wall  bool // record real wall-clock per phase (distributed mode)

	// abortOnce latches the first rank failure; abortCause records it for
	// the error join. Once latched, every local endpoint (and, through it,
	// every remote peer) fails within a bounded time instead of wedging.
	abortOnce  sync.Once
	abortMu    sync.Mutex
	abortCause error
}

// New creates an in-process cluster of p ranks with the given network
// model: every rank is a goroutine and delivery is the in-memory
// transport. Collectives run the same point-to-point protocol as a
// distributed cluster, over the in-memory mailboxes.
func New(p int, comm cost.CommModel) *Cluster {
	if p < 1 {
		panic(fmt.Sprintf("cluster: invalid rank count %d", p))
	}
	mems := transport.NewMem(p)
	c := &Cluster{p: p, comm: comm}
	c.local = make([]int, p)
	c.eps = make([]transport.Transport, p)
	for i := 0; i < p; i++ {
		c.local[i] = i
		c.eps[i] = mems[i]
	}
	return c
}

// NewDistributed creates the local member of a multi-process cluster: ep is
// this process's endpoint of a P-rank transport (e.g. the TCP backend), and
// Run executes the rank program for that one rank. Collectives run the
// same point-to-point protocol as in-process, so simulated times agree
// across backends. Wall-clock phase timing is enabled.
func NewDistributed(ep transport.Transport, comm cost.CommModel) *Cluster {
	return &Cluster{
		p:     ep.P(),
		comm:  comm,
		local: []int{ep.Rank()},
		eps:   []transport.Transport{ep},
		wall:  true,
	}
}

// P reports the number of ranks.
func (c *Cluster) P() int { return c.p }

// LocalRanks reports the rank ids this Cluster executes (all of them
// in-process; exactly one in distributed mode).
func (c *Cluster) LocalRanks() []int { return c.local }

// IsLocal reports whether rank id runs in this process.
func (c *Cluster) IsLocal(id int) bool {
	for _, r := range c.local {
		if r == id {
			return true
		}
	}
	return false
}

// commFailure carries a transport-level error out of a rank's deep call
// stack. Rank methods keep their error-free signatures (the SPMD program
// reads like MPI code); Run converts the failure into that rank's error.
type commFailure struct{ err error }

// Run executes fn on every local rank concurrently and returns the
// per-rank timing report alongside the aggregation of every failed rank's
// error. The first rank to fail triggers AbortBroadcast, so the surviving
// ranks — blocked in receives or collectives the dead rank will never
// feed — unblock with typed cascade errors within a bounded time instead
// of wedging the run. The join deduplicates: cascades are summarized
// behind the root cause (a real peer death on rank 3 is never masked by
// its fallout on rank 0), and errors sharing one sticky transport failure
// instance are reported once.
func (c *Cluster) Run(fn func(r *Rank) error) (*Report, error) {
	n := len(c.local)
	ranks := make([]*Rank, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		ranks[i] = &Rank{id: c.local[i], c: c, ep: c.eps[i], phases: make(map[string]*PhaseStats)}
		go func(slot int, r *Rank) {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					cf, ok := e.(commFailure)
					if !ok {
						panic(e) // protocol violations keep panicking
					}
					errs[slot] = cf.err
				}
				if errs[slot] != nil {
					c.AbortBroadcast(c.local[slot], errs[slot])
				}
			}()
			defer r.finishWall()
			r.startWall()
			errs[slot] = fn(r)
		}(i, ranks[i])
	}
	wg.Wait()
	rep := buildReport(ranks)
	return rep, joinRankErrors(c.local, errs)
}

// AbortBroadcast fails every communication path of this cluster's local
// endpoints with a typed cascade error naming the failed rank and its
// cause. In-process, the shared mailbox matrix fails, unblocking all P
// ranks at once, whether they wait in a receive or in a collective; in
// distributed mode the local endpoint's connections close, which remote
// peers observe as immediate read failures — far faster than their
// heartbeat watchdogs. Combined with per-op transport
// deadlines this bounds how long one dead rank can stall the run: every
// surviving rank's pending operation returns an error instead of hanging.
// Idempotent; the first (rank, cause) wins. Run invokes it automatically
// when a rank fails; it is exported for drivers that learn about a rank's
// death out of band.
func (c *Cluster) AbortBroadcast(rank int, cause error) {
	c.abortOnce.Do(func() {
		ae := &AbortError{Rank: rank, Cause: cause}
		c.abortMu.Lock()
		c.abortCause = ae
		c.abortMu.Unlock()
		for _, ep := range c.eps {
			if a, ok := ep.(transport.Aborter); ok {
				a.Abort(ae)
			} else {
				ep.Close() //lint:droperr best-effort teardown; the abort cause is the report
			}
		}
	})
}

// Rank is the per-process handle: identity, clock, and transport endpoints.
// A Rank must only be used from the goroutine Run started for it.
type Rank struct {
	id int
	c  *Cluster
	ep transport.Transport

	now     float64 // virtual clock, seconds
	compute float64
	comm    float64

	bytesSent int64
	msgsSent  int64

	phase  string
	phases map[string]*PhaseStats

	// wallMark is the real-clock start of the current phase; wallTotal
	// accumulates the rank's real runtime (distributed mode only).
	wallMark  time.Time
	wallStart time.Time
	wallTotal float64

	// linkBusyUntil tracks the receiver link occupancy when the comm
	// model serializes ingress.
	linkBusyUntil float64
}

// ID reports this rank's id in [0, P).
func (r *Rank) ID() int { return r.id }

// P reports the cluster size.
func (r *Rank) P() int { return r.c.p }

// Now reports the rank's current virtual time in seconds.
func (r *Rank) Now() float64 { return r.now }

// ComputeTime reports accumulated compute seconds.
func (r *Rank) ComputeTime() float64 { return r.compute }

// CommTime reports accumulated communication seconds (transfer plus
// synchronization waiting).
func (r *Rank) CommTime() float64 { return r.comm }

// SetPhase labels subsequent time charges with the given phase name for the
// phase-breakdown reports (Figure 7). In distributed mode it also closes
// the previous phase's real wall-clock interval.
func (r *Rank) SetPhase(name string) {
	if r.c.wall {
		now := time.Now() //lint:wallclock wall columns are the point of distributed mode; gated by c.wall
		// Time before the first label counts toward the rank's total but
		// not toward any phase, so reports don't grow a near-zero
		// "unlabeled" row that the in-process reports would not have.
		if !r.wallMark.IsZero() && r.phase != "" {
			r.phaseStats().Wall += now.Sub(r.wallMark).Seconds()
		}
		r.wallMark = now
	}
	r.phase = name
}

// startWall opens the rank's real-clock measurement window.
func (r *Rank) startWall() {
	if r.c.wall {
		r.wallStart = time.Now() //lint:wallclock wall columns are the point of distributed mode; gated by c.wall
		r.wallMark = r.wallStart
	}
}

// finishWall closes the current phase's and the rank's wall intervals.
func (r *Rank) finishWall() {
	if !r.c.wall || r.wallStart.IsZero() {
		return
	}
	now := time.Now() //lint:wallclock wall columns are the point of distributed mode; gated by c.wall
	if !r.wallMark.IsZero() && r.phase != "" {
		r.phaseStats().Wall += now.Sub(r.wallMark).Seconds()
	}
	r.wallMark = time.Time{}
	r.wallTotal = now.Sub(r.wallStart).Seconds()
}

func (r *Rank) phaseStats() *PhaseStats {
	name := r.phase
	if name == "" {
		name = "unlabeled"
	}
	ps := r.phases[name]
	if ps == nil {
		ps = &PhaseStats{}
		r.phases[name] = ps
	}
	return ps
}

// Compute advances the clock by sec seconds of modeled computation.
func (r *Rank) Compute(sec float64) {
	if sec < 0 {
		panic("cluster: negative compute time")
	}
	r.now += sec
	r.compute += sec
	r.phaseStats().Compute += sec
}

// chargeCommUntil moves the clock forward to at least t (never backward)
// and books the delta as communication time.
func (r *Rank) chargeCommUntil(t float64) {
	if t <= r.now {
		return
	}
	d := t - r.now
	r.now = t
	r.comm += d
	r.phaseStats().Comm += d
}

// chargeSend books the α–β cost and traffic counters of sending len(data)
// bytes and returns the message carrying the post-send arrival clock. Send
// and Isend charge identically, so a program that swaps one for the other
// reports bit-identical simulated times over every backend.
func (r *Rank) chargeSend(dst, tag int, data []byte) transport.Message {
	if dst < 0 || dst >= r.c.p {
		panic(fmt.Sprintf("cluster: send to invalid rank %d", dst))
	}
	c := r.c.comm.Seconds(int64(len(data)))
	r.now += c
	r.comm += c
	ps := r.phaseStats()
	ps.Comm += c
	ps.BytesSent += int64(len(data))
	ps.Msgs++
	r.bytesSent += int64(len(data))
	r.msgsSent++
	return transport.Message{Tag: int32(tag), Arrival: r.now, Data: data}
}

// Send transfers data to rank dst with the given tag. The sender is charged
// the full α–β transfer cost (a blocking send); the message arrives at the
// sender's post-send clock. Data is referenced, not copied, on the
// in-process transport: the sender must not modify the slice afterwards
// (ranks are address-space-separate by convention, and all call sites build
// fresh buffers). A dead peer on a real transport surfaces as this rank's
// error from Run.
func (r *Rank) Send(dst, tag int, data []byte) {
	msg := r.chargeSend(dst, tag, data)
	if err := r.ep.Send(dst, msg); err != nil {
		panic(commFailure{rankLost("send", dst, err)})
	}
}

// Isend transfers data to rank dst asynchronously: on a real transport the
// message is handed to the peer's bounded outbound queue and a writer
// goroutine performs the socket writes underneath, so the rank program
// never blocks inside a kernel write while it still owes the cluster a
// receive. The simulated cost model is identical to Send — the modeled MPI
// machine charges an eager send either way — so swapping Send for Isend
// changes only real-world liveness, never the virtual-time reports.
// Sustained backpressure (SendQueueFullError) and dead peers surface as
// this rank's error from Run. The caller must not modify data afterwards.
func (r *Rank) Isend(dst, tag int, data []byte) {
	msg := r.chargeSend(dst, tag, data)
	if err := r.ep.Isend(dst, msg); err != nil {
		panic(commFailure{rankLost("isend", dst, err)})
	}
}

// Recv blocks until the next message from src arrives, checks its tag, and
// returns its payload. The receiver's clock advances to the message's
// arrival time if it is later (synchronization wait is booked as
// communication time). With SerializeIngress, the payload transfer also
// queues behind other traffic into this rank. A dead peer on a real
// transport surfaces as this rank's error from Run instead of a hang.
func (r *Rank) Recv(src, tag int) []byte {
	if src < 0 || src >= r.c.p {
		panic(fmt.Sprintf("cluster: recv from invalid rank %d", src))
	}
	msg, err := r.ep.Recv(src)
	if err != nil {
		panic(commFailure{rankLost("recv", src, err)})
	}
	if int(msg.Tag) != tag {
		panic(fmt.Sprintf("cluster: rank %d expected tag %d from %d, got %d", r.id, tag, src, msg.Tag))
	}
	arrival := msg.Arrival
	if r.c.comm.SerializeIngress {
		// The sender's clock already covers α + transfer on its side;
		// the receiver link replays the transfer portion serially.
		transfer := r.c.comm.Seconds(int64(len(msg.Data))) - r.c.comm.Latency
		start := msg.Arrival - transfer // when the payload hits our link
		if start < r.linkBusyUntil {
			start = r.linkBusyUntil
		}
		arrival = start + transfer
		r.linkBusyUntil = arrival
	}
	r.chargeCommUntil(arrival)
	return msg.Data
}

// sendCtrl ships a zero-cost control message (collective internals, report
// gathering) directly over the transport: no α–β charge, no traffic
// counters — the collectives that use them are priced analytically.
func (r *Rank) sendCtrl(dst int, tag int32, data []byte) {
	if err := r.ep.Send(dst, transport.Message{Tag: tag, Data: data}); err != nil {
		panic(commFailure{rankLost("collective send", dst, err)})
	}
}

// recvCtrl receives a control message with the given tag from src.
func (r *Rank) recvCtrl(src int, tag int32) []byte {
	msg, err := r.ep.Recv(src)
	if err != nil {
		panic(commFailure{rankLost("collective recv", src, err)})
	}
	if msg.Tag != tag {
		panic(fmt.Sprintf("cluster: rank %d expected control tag %d from %d, got %d", r.id, tag, src, msg.Tag))
	}
	return msg.Data
}

// BytesSent reports the total payload bytes this rank has sent.
func (r *Rank) BytesSent() int64 { return r.bytesSent }

// MsgsSent reports the number of messages this rank has sent.
func (r *Rank) MsgsSent() int64 { return r.msgsSent }
