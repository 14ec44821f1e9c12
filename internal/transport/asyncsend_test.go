package transport

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// --- sendq ---

func TestSendqFIFOAndByteBound(t *testing.T) {
	q := newSendq(8)
	deadline := time.Now().Add(time.Second)
	if err := q.put(outFrame{tag: 1, payload: []byte("aaaa")}, deadline); err != nil {
		t.Fatal(err)
	}
	if err := q.put(outFrame{tag: 2, payload: []byte("bbbb")}, deadline); err != nil {
		t.Fatal(err)
	}
	// All 8 bytes used: the next frame must wait, and a short deadline must
	// surface the backpressure as a timeout.
	err := q.put(outFrame{tag: 3, payload: []byte("cccc")}, time.Now().Add(30*time.Millisecond))
	if _, ok := err.(errQueueTimeout); !ok {
		t.Fatalf("err=%v, want errQueueTimeout", err)
	}
	f, ok, exit := q.take(time.Second)
	if !ok || exit || f.tag != 1 {
		t.Fatalf("take: %+v ok=%v exit=%v", f, ok, exit)
	}
	q.complete()
	// Space freed: the frame fits now.
	if err := q.put(outFrame{tag: 3, payload: []byte("cccc")}, deadline); err != nil {
		t.Fatal(err)
	}
	if got := q.queued(); got != 2 {
		t.Fatalf("queued=%d", got)
	}
}

func TestSendqOversizedFrameAdmittedWhenEmpty(t *testing.T) {
	q := newSendq(4)
	big := make([]byte, 1<<10)
	if err := q.put(outFrame{tag: 1, payload: big}, time.Now().Add(time.Second)); err != nil {
		t.Fatalf("oversized frame on empty queue rejected: %v", err)
	}
	f, ok, _ := q.take(time.Second)
	if !ok || len(f.payload) != len(big) {
		t.Fatalf("take ok=%v len=%d", ok, len(f.payload))
	}
}

func TestSendqTakeIdleTimeoutIsHeartbeatCue(t *testing.T) {
	q := newSendq(0)
	start := time.Now()
	_, ok, exit := q.take(50 * time.Millisecond)
	if ok || exit {
		t.Fatalf("idle take: ok=%v exit=%v", ok, exit)
	}
	if e := time.Since(start); e < 20*time.Millisecond || e > 5*time.Second {
		t.Fatalf("idle take returned after %v", e)
	}
}

func TestSendqCloseDrainsThenExits(t *testing.T) {
	q := newSendq(0)
	deadline := time.Now().Add(time.Second)
	for i := 0; i < 3; i++ {
		if err := q.put(outFrame{tag: int32(i), payload: []byte{byte(i)}}, deadline); err != nil {
			t.Fatal(err)
		}
	}
	q.closeq()
	if err := q.put(outFrame{tag: 9}, deadline); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after close: %v", err)
	}
	for i := 0; i < 3; i++ {
		f, ok, exit := q.take(time.Second)
		if !ok || exit || f.tag != int32(i) {
			t.Fatalf("drain %d: %+v ok=%v exit=%v", i, f, ok, exit)
		}
		q.complete()
	}
	if _, ok, exit := q.take(time.Second); ok || !exit {
		t.Fatalf("closed+drained take: ok=%v exit=%v", ok, exit)
	}
	if err := q.flush(time.Now().Add(time.Second)); err != nil {
		t.Fatalf("flush of drained queue: %v", err)
	}
}

func TestSendqFailUnblocksPutAndFlush(t *testing.T) {
	q := newSendq(4)
	if err := q.put(outFrame{payload: []byte("xxxx")}, time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	cause := errors.New("peer exploded")
	putErr := make(chan error, 1)
	flushErr := make(chan error, 1)
	go func() {
		putErr <- q.put(outFrame{payload: []byte("yyyy")}, time.Now().Add(30*time.Second))
	}()
	go func() {
		flushErr <- q.flush(time.Now().Add(30 * time.Second))
	}()
	time.Sleep(20 * time.Millisecond)
	q.fail(cause)
	for name, ch := range map[string]chan error{"put": putErr, "flush": flushErr} {
		select {
		case err := <-ch:
			if !errors.Is(err, cause) {
				t.Fatalf("%s err=%v", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never unblocked after fail", name)
		}
	}
	if _, _, exit := q.take(time.Second); !exit {
		t.Fatal("take after fail did not exit")
	}
}

// TestSendqFlushWaitsForInflightWrite replays the teardown race of a
// finished run: the writer has taken the last frame, the peer reads it and
// hangs up, and its EOF fails the queue before the writer reports the
// write. flush must wait for the write's outcome: success if the writer
// completes it, the queue's failure if the writer abandons it.
func TestSendqFlushWaitsForInflightWrite(t *testing.T) {
	cause := errors.New("peer hung up")
	for _, tc := range []struct {
		name    string
		outcome func(q *sendq)
		want    error
	}{
		{"written", (*sendq).complete, nil},
		{"lost", (*sendq).abandon, cause},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := newSendq(0)
			if err := q.put(outFrame{payload: []byte("last")}, time.Now().Add(time.Second)); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := q.take(time.Second); !ok {
				t.Fatal("writer took no frame")
			}
			q.fail(cause)
			flushErr := make(chan error, 1)
			go func() { flushErr <- q.flush(time.Now().Add(30 * time.Second)) }()
			select {
			case err := <-flushErr:
				t.Fatalf("flush returned %v before the in-flight write's outcome", err)
			case <-time.After(50 * time.Millisecond):
			}
			tc.outcome(q)
			select {
			case err := <-flushErr:
				if !errors.Is(err, tc.want) {
					t.Fatalf("flush err=%v, want %v", err, tc.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("flush never returned after the write's outcome")
			}
		})
	}
}

// --- Mem.Isend ---

func TestMemIsendEqualsSend(t *testing.T) {
	eps := NewMem(2)
	for k := 0; k < 5; k++ {
		if err := eps[0].Isend(1, Message{Tag: int32(k), Data: []byte{byte(k)}}); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 5; k++ {
		m, err := eps[1].Recv(0)
		if err != nil || m.Tag != int32(k) {
			t.Fatalf("msg %d: %+v err=%v", k, m, err)
		}
	}
}

// --- receive-window flow control (queue.waitBelow) ---

func TestQueueWaitBelow(t *testing.T) {
	q := newQueue()
	q.put(Message{Data: make([]byte, 100)})
	released := make(chan error, 1)
	go func() { released <- q.waitBelow(50) }()
	select {
	case err := <-released:
		t.Fatalf("waitBelow returned early: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	if _, err := q.take(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-released:
		if err != nil {
			t.Fatalf("waitBelow err=%v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waitBelow never released after drain")
	}
}

// --- TCP asynchronous sends ---

// boundedCfg is a TCP configuration with small end-to-end buffering at
// every layer, so backpressure phenomena reproduce at test scale.
func boundedCfg() TCPConfig {
	return TCPConfig{
		SendQueueBytes:    64 << 10,
		RecvWindowBytes:   64 << 10,
		SocketBufferBytes: 64 << 10,
		HeartbeatInterval: 50 * time.Millisecond,
	}
}

func TestTCPIsendDeliversFIFOAcrossSendMix(t *testing.T) {
	eps := startTCPCluster(t, 2, TCPConfig{})
	const k = 100
	for i := 0; i < k; i++ {
		var err error
		if i%3 == 0 {
			err = eps[0].Send(1, Message{Tag: int32(i), Data: []byte{byte(i)}})
		} else {
			err = eps[0].Isend(1, Message{Tag: int32(i), Data: []byte{byte(i)}})
		}
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
	}
	for i := 0; i < k; i++ {
		m, err := eps[1].Recv(0)
		if err != nil {
			t.Fatal(err)
		}
		if m.Tag != int32(i) || m.Data[0] != byte(i) {
			t.Fatalf("msg %d out of order: tag=%d", i, m.Tag)
		}
	}
}

func TestTCPIsendBackpressureSurfacesAsQueueFull(t *testing.T) {
	cfg := boundedCfg()
	cfg.SendQueueTimeout = 300 * time.Millisecond
	eps := startTCPCluster(t, 2, cfg)
	// Rank 1 never receives: its 64 KiB window fills, its reader pauses,
	// the kernel buffers fill, rank 0's writer wedges in the socket, and
	// rank 0's 64 KiB outbound queue fills. The next Isend must surface a
	// SendQueueFullError within the queue deadline instead of hanging.
	payload := make([]byte, 16<<10)
	deadline := time.Now().Add(25 * time.Second)
	for i := 0; ; i++ {
		err := eps[0].Isend(1, Message{Tag: 5, Data: payload})
		if err == nil {
			if time.Now().After(deadline) {
				t.Fatal("backpressure never surfaced")
			}
			continue
		}
		var full *SendQueueFullError
		if !errors.As(err, &full) {
			t.Fatalf("isend %d: err=%v, want SendQueueFullError", i, err)
		}
		if full.Rank != 1 || full.Wait != cfg.SendQueueTimeout {
			t.Fatalf("queue-full detail: %+v", full)
		}
		if i < 4 {
			t.Fatalf("queue full after only %d sends; buffering misconfigured", i)
		}
		break
	}
}

func TestTCPIsendToDeadPeerErrors(t *testing.T) {
	eps := startTCPCluster(t, 2, TCPConfig{
		HeartbeatInterval: 50 * time.Millisecond,
		PeerTimeout:       500 * time.Millisecond,
		SendQueueTimeout:  2 * time.Second,
	})
	eps[1].Close()
	deadline := time.Now().Add(25 * time.Second)
	for {
		err := eps[0].Isend(1, Message{Tag: 3, Data: []byte("x")})
		if err != nil {
			var pd *PeerDeadError
			if !errors.As(err, &pd) || pd.Rank != 1 {
				t.Fatalf("err=%v, want PeerDeadError for rank 1", err)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("peer death never surfaced on Isend")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTCPCloseDrainsQueuedIsends(t *testing.T) {
	eps := startTCPCluster(t, 2, TCPConfig{})
	const k = 50
	payload := bytes.Repeat([]byte{0xA7}, 8<<10)
	for i := 0; i < k; i++ {
		if err := eps[0].Isend(1, Message{Tag: int32(i), Data: payload}); err != nil {
			t.Fatalf("isend %d: %v", i, err)
		}
	}
	// Close immediately: the graceful drain must still deliver all k
	// frames that Isend only enqueued.
	eps[0].Close()
	for i := 0; i < k; i++ {
		m, err := eps[1].Recv(0)
		if err != nil {
			t.Fatalf("recv %d after sender close: %v", i, err)
		}
		if m.Tag != int32(i) || !bytes.Equal(m.Data, payload) {
			t.Fatalf("frame %d corrupted: tag=%d len=%d", i, m.Tag, len(m.Data))
		}
	}
}

func TestTCPRecvWindowPausesWithoutLossOrFalseDeath(t *testing.T) {
	cfg := boundedCfg()
	cfg.PeerTimeout = 700 * time.Millisecond
	eps := startTCPCluster(t, 2, cfg)
	const k = 150
	payload := make([]byte, 4<<10)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	sendErr := make(chan error, 1)
	go func() {
		for i := 0; i < k; i++ {
			if err := eps[0].Send(1, Message{Tag: int32(i), Data: payload}); err != nil {
				sendErr <- fmt.Errorf("send %d: %w", i, err)
				return
			}
		}
		sendErr <- nil
	}()
	// 600 KiB of traffic against a 64 KiB window: the receiver's reader
	// must pause and resume many times. Drain slowly at first so the pause
	// path runs while the peer-timeout watchdog is live — a paused reader
	// that kept its watchdog armed would false-kill the healthy peer.
	for i := 0; i < k; i++ {
		if i < 3 {
			time.Sleep(300 * time.Millisecond)
		}
		m, err := eps[1].Recv(0)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if m.Tag != int32(i) || !bytes.Equal(m.Data, payload) {
			t.Fatalf("frame %d corrupted under flow control", i)
		}
	}
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
}

// TestTCPConcurrentIsendManyPeers exercises the per-peer writer goroutines
// under concurrent fan-out from every rank to every rank.
func TestTCPConcurrentIsendManyPeers(t *testing.T) {
	const p = 4
	const k = 40
	eps := startTCPCluster(t, p, boundedCfg())
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// Interleave: one message to each peer per round, receiving as
			// we go, so bounded buffers never fill.
			for round := 0; round < k; round++ {
				for dst := 0; dst < p; dst++ {
					m := Message{Tag: int32(round), Data: []byte{byte(r), byte(round)}}
					if err := eps[r].Isend(dst, m); err != nil {
						errs[r] = err
						return
					}
				}
				for src := 0; src < p; src++ {
					m, err := eps[r].Recv(src)
					if err != nil {
						errs[r] = err
						return
					}
					if m.Tag != int32(round) || m.Data[0] != byte(src) || m.Data[1] != byte(round) {
						errs[r] = fmt.Errorf("round %d src %d: %+v", round, src, m)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}
