package cluster

import (
	"testing"
	"time"
)

func expectPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestProtocolViolationsPanic(t *testing.T) {
	c := New(2, testComm())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = c.Run(func(r *Rank) error {
			if r.ID() == 0 {
				expectPanic(t, "send to invalid rank", func() { r.Send(5, 0, nil) })
				expectPanic(t, "send to negative rank", func() { r.Send(-1, 0, nil) })
				expectPanic(t, "recv from invalid rank", func() { r.Recv(9, 0) })
				expectPanic(t, "negative compute", func() { r.Compute(-1) })
				// Tag mismatch: rank 1 sends tag 7, we expect tag 8.
				expectPanic(t, "tag mismatch", func() { r.Recv(1, 8) })
			} else {
				r.Send(0, 7, []byte{1})
			}
			return nil
		})
	}()
	<-done
}

func TestAllreduceLengthMismatchPanics(t *testing.T) {
	// Rank 0 folds the contributions, detects the mismatch and panics;
	// rank 1 waits forever (the simulated program is broken, as a real MPI
	// program would be), so the cluster run never returns — run it
	// detached and only wait for the detection signal.
	c := New(2, testComm())
	panicked := make(chan bool, 2)
	go func() {
		_, _ = c.Run(func(r *Rank) error {
			defer func() {
				panicked <- recover() != nil
			}()
			if r.ID() == 0 {
				r.Allreduce([]int64{1, 2}, OpSum)
			} else {
				r.Allreduce([]int64{1}, OpSum)
			}
			return nil
		})
	}()
	select {
	case p := <-panicked:
		if !p {
			t.Fatal("a rank returned without detecting the mismatch")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("length mismatch never detected")
	}
}

func TestUnknownReduceOpPanics(t *testing.T) {
	expectPanic(t, "unknown op", func() { ReduceOp(99).apply(1, 2) })
}
