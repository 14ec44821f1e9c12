package cluster

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"mndmst/internal/cost"
)

func testComm() cost.CommModel {
	return cost.CommModel{Latency: 1e-5, Bandwidth: 1e9}
}

func TestRunAllRanksExecute(t *testing.T) {
	c := New(8, testComm())
	seen := make([]bool, 8)
	_, err := c.Run(func(r *Rank) error {
		seen[r.ID()] = true
		if r.P() != 8 {
			return fmt.Errorf("P=%d", r.P())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("rank %d never ran", i)
		}
	}
}

func TestRunAggregatesAllErrors(t *testing.T) {
	c := New(4, testComm())
	_, err := c.Run(func(r *Rank) error {
		if r.ID() >= 2 {
			return fmt.Errorf("boom %d", r.ID())
		}
		return nil
	})
	if err == nil {
		t.Fatal("error lost")
	}
	// errors.Join keeps every failed rank visible: a peer death on rank 3
	// must not be masked by a cascade error on rank 2.
	want := "cluster: rank 2: boom 2\ncluster: rank 3: boom 3"
	if got := err.Error(); got != want {
		t.Fatalf("err=%q want %q", got, want)
	}
	if !errors.Is(err, err) { // sanity: joined errors stay inspectable
		t.Fatal("errors.Is broken")
	}
	for _, rank := range []int{2, 3} {
		var found bool
		for _, line := range strings.Split(err.Error(), "\n") {
			if line == fmt.Sprintf("cluster: rank %d: boom %d", rank, rank) {
				found = true
			}
		}
		if !found {
			t.Fatalf("rank %d error missing from %q", rank, err)
		}
	}
}

// TestRunFailureDuringCollectiveAborts fails one in-process rank while its
// peers wait in a collective it will never join. The abort must unblock
// every peer: Run returns promptly, the joined error names the failing
// rank, and each peer fails with an AbortError cascade naming that rank.
func TestRunFailureDuringCollectiveAborts(t *testing.T) {
	const p = 4
	for _, coll := range []struct {
		name string
		wait func(r *Rank)
	}{
		{"Barrier", func(r *Rank) { r.Barrier() }},
		{"Allreduce", func(r *Rank) { r.Allreduce([]int64{1}, OpSum) }},
		{"StatAllreduce", func(r *Rank) { r.StatAllreduce([]int64{1}, OpMax) }},
	} {
		// Rank 0 gathers the round; a failing non-root leaves it waiting
		// on the gather, a failing root leaves the peers waiting on the
		// broadcast.
		for _, failing := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/rank%d", coll.name, failing), func(t *testing.T) {
				boom := errors.New("boom")
				peerErrs := make([]error, p)
				var entering sync.WaitGroup
				entering.Add(p - 1)
				done := make(chan error, 1)
				go func() {
					_, err := New(p, testComm()).Run(func(r *Rank) error {
						if r.ID() == failing {
							entering.Wait()
							return boom
						}
						entering.Done()
						defer func() {
							if e := recover(); e != nil {
								if cf, ok := e.(commFailure); ok {
									peerErrs[r.ID()] = cf.err
								}
								panic(e)
							}
						}()
						coll.wait(r)
						return nil
					})
					done <- err
				}()
				var err error
				select {
				case err = <-done:
				case <-time.After(10 * time.Second):
					t.Fatal("Run did not return after a rank failed during the collective")
				}
				if !errors.Is(err, boom) {
					t.Fatalf("joined error %q lost the root cause", err)
				}
				msg := err.Error()
				if !strings.Contains(msg, fmt.Sprintf("cluster: rank %d: boom", failing)) ||
					!strings.Contains(msg, fmt.Sprintf("%d more rank(s) failed from the same cause", p-1)) {
					t.Fatalf("joined error %q does not name rank %d and its %d cascades", msg, failing, p-1)
				}
				for id, pe := range peerErrs {
					if id == failing {
						continue
					}
					var ae *AbortError
					if !errors.As(pe, &ae) || ae.Rank != failing || !errors.Is(ae, boom) {
						t.Fatalf("rank %d failed with %v, want an AbortError cascade of rank %d", id, pe, failing)
					}
				}
			})
		}
	}
}

func TestNewPanicsOnBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, testComm())
}

func TestComputeAdvancesClock(t *testing.T) {
	c := New(1, testComm())
	rep, err := c.Run(func(r *Rank) error {
		r.Compute(1.5)
		r.Compute(0.5)
		if r.Now() != 2.0 || r.ComputeTime() != 2.0 || r.CommTime() != 0 {
			return fmt.Errorf("now=%f compute=%f comm=%f", r.Now(), r.ComputeTime(), r.CommTime())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExecutionTime() != 2.0 {
		t.Fatalf("exec=%f", rep.ExecutionTime())
	}
}

func TestSendRecvTransfersDataAndTime(t *testing.T) {
	c := New(2, testComm())
	payload := []byte("hello, rank 1")
	rep, err := c.Run(func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, 7, payload)
			return nil
		}
		got := r.Recv(0, 7)
		if string(got) != string(payload) {
			return fmt.Errorf("got %q", got)
		}
		// Receiver idled from t=0, so its clock must equal the arrival
		// time: the full transfer cost.
		want := testComm().Seconds(int64(len(payload)))
		if math.Abs(r.Now()-want) > 1e-15 {
			return fmt.Errorf("recv clock %g want %g", r.Now(), want)
		}
		if r.CommTime() != r.Now() {
			return fmt.Errorf("comm time %g", r.CommTime())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalBytes() != int64(len(payload)) || rep.TotalMsgs() != 1 {
		t.Fatalf("bytes=%d msgs=%d", rep.TotalBytes(), rep.TotalMsgs())
	}
}

func TestRecvDoesNotRewindClock(t *testing.T) {
	c := New(2, testComm())
	_, err := c.Run(func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, 1, []byte{1, 2, 3})
			return nil
		}
		r.Compute(100) // receiver is far ahead of the message arrival
		r.Recv(0, 1)
		if r.Now() != 100 {
			return fmt.Errorf("clock moved to %f", r.Now())
		}
		if r.CommTime() != 0 {
			return fmt.Errorf("comm charged %f for an already-arrived message", r.CommTime())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessageOrderingFIFOPerPair(t *testing.T) {
	c := New(2, testComm())
	_, err := c.Run(func(r *Rank) error {
		const k = 100
		if r.ID() == 0 {
			for i := 0; i < k; i++ {
				r.Send(1, i, []byte{byte(i)})
			}
			return nil
		}
		for i := 0; i < k; i++ {
			got := r.Recv(0, i) // tag check enforces order
			if got[0] != byte(i) {
				return fmt.Errorf("message %d carries %d", i, got[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicVirtualTimes(t *testing.T) {
	run := func() (float64, float64) {
		c := New(4, testComm())
		rep, err := c.Run(func(r *Rank) error {
			r.Compute(float64(r.ID()) * 0.001)
			next := (r.ID() + 1) % 4
			prev := (r.ID() + 3) % 4
			r.Send(next, 0, make([]byte, 1000*(r.ID()+1)))
			r.Recv(prev, 0)
			r.Barrier()
			r.Compute(0.002)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.ExecutionTime(), rep.CommTime()
	}
	e1, c1 := run()
	for i := 0; i < 10; i++ {
		e2, c2 := run()
		if e1 != e2 || c1 != c2 {
			t.Fatalf("run %d: times differ: (%g,%g) vs (%g,%g)", i, e1, c1, e2, c2)
		}
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	c := New(4, testComm())
	_, err := c.Run(func(r *Rank) error {
		r.Compute(float64(r.ID())) // ranks at 0,1,2,3 seconds
		r.Barrier()
		want := 3 + testComm().BarrierSeconds(4)
		if math.Abs(r.Now()-want) > 1e-12 {
			return fmt.Errorf("rank %d at %f want %f", r.ID(), r.Now(), want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierReusable(t *testing.T) {
	c := New(8, testComm())
	_, err := c.Run(func(r *Rank) error {
		for i := 0; i < 50; i++ {
			r.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceSum(t *testing.T) {
	c := New(4, testComm())
	_, err := c.Run(func(r *Rank) error {
		got := r.Allreduce([]int64{int64(r.ID()), 1}, OpSum)
		if got[0] != 6 || got[1] != 4 {
			return fmt.Errorf("rank %d got %v", r.ID(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceMaxMinScalar(t *testing.T) {
	c := New(5, testComm())
	_, err := c.Run(func(r *Rank) error {
		if got := r.AllreduceScalar(int64(r.ID()), OpMax); got != 4 {
			return fmt.Errorf("max=%d", got)
		}
		if got := r.AllreduceScalar(int64(r.ID()), OpMin); got != 0 {
			return fmt.Errorf("min=%d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceManyRounds(t *testing.T) {
	c := New(3, testComm())
	_, err := c.Run(func(r *Rank) error {
		for round := int64(0); round < 100; round++ {
			got := r.AllreduceScalar(round+int64(r.ID()), OpSum)
			want := 3*round + 3
			if got != want {
				return fmt.Errorf("round %d: got %d want %d", round, got, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPhaseAccounting(t *testing.T) {
	c := New(2, testComm())
	rep, err := c.Run(func(r *Rank) error {
		r.SetPhase("indComp")
		r.Compute(1)
		r.SetPhase("merge")
		if r.ID() == 0 {
			r.Send(1, 0, make([]byte, 100))
		} else {
			r.Recv(0, 0)
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	comp, comm := rep.PhaseTime("indComp")
	if comp != 1 || comm != 0 {
		t.Fatalf("indComp: compute=%f comm=%f", comp, comm)
	}
	comp, comm = rep.PhaseTime("merge")
	if comp != 0 || comm <= 0 {
		t.Fatalf("merge: compute=%f comm=%f", comp, comm)
	}
	names := rep.PhaseNames()
	if len(names) != 2 || names[0] != "indComp" || names[1] != "merge" {
		t.Fatalf("names=%v", names)
	}
}

func TestReportAggregates(t *testing.T) {
	c := New(3, testComm())
	rep, err := c.Run(func(r *Rank) error {
		r.Compute(float64(r.ID() + 1))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExecutionTime() != 3 || rep.ComputeTime() != 3 || rep.CommTime() != 0 {
		t.Fatalf("exec=%f compute=%f comm=%f", rep.ExecutionTime(), rep.ComputeTime(), rep.CommTime())
	}
	if len(rep.Ranks) != 3 {
		t.Fatalf("ranks=%d", len(rep.Ranks))
	}
}

func TestSelfSendRoundTrips(t *testing.T) {
	c := New(2, testComm())
	_, err := c.Run(func(r *Rank) error {
		r.Send(r.ID(), 5, []byte{byte(r.ID())})
		got := r.Recv(r.ID(), 5)
		if len(got) != 1 || got[0] != byte(r.ID()) {
			return fmt.Errorf("self payload %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSerializeIngressQueuesConcurrentSenders(t *testing.T) {
	comm := testComm()
	comm.SerializeIngress = true
	const n = 1 << 20 // 1 MB per sender
	run := func(serialize bool) float64 {
		c := testCluster(serialize, n)
		rep, err := c.Run(func(r *Rank) error {
			if r.ID() == 0 {
				for src := 1; src < 4; src++ {
					r.Recv(src, 0)
				}
				return nil
			}
			r.Send(0, 0, make([]byte, n))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.ExecutionTime()
	}
	plain := run(false)
	serial := run(true)
	// Three concurrent 1MB streams into one rank: the serialized link must
	// take roughly 3x one transfer, clearly above the plain model.
	if serial <= plain*1.5 {
		t.Fatalf("ingress serialization had no effect: %g vs %g", serial, plain)
	}
}

func testCluster(serialize bool, _ int) *Cluster {
	comm := testComm()
	comm.SerializeIngress = serialize
	return New(4, comm)
}
