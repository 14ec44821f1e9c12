package merge

import (
	"fmt"
	"testing"
	"time"

	"mndmst/internal/cluster"
	"mndmst/internal/transport"
	"mndmst/internal/wire"
)

// --- round-robin pairing ---

// TestRRPartnerProperties checks the circle-method schedule invariants for
// every participant count the merge phase can see: each round is a perfect
// matching (symmetric, no self-pairs, at most one bye), and every unordered
// pair meets in exactly one round.
func TestRRPartnerProperties(t *testing.T) {
	for n := 1; n <= 12; n++ {
		met := make(map[[2]int]int)
		for round := 0; round < rrRounds(n); round++ {
			byes := 0
			for idx := 0; idx < n; idx++ {
				p := rrPartner(n, round, idx)
				if p == idx {
					t.Fatalf("n=%d round=%d: idx %d paired with itself", n, round, idx)
				}
				if p < 0 {
					byes++
					continue
				}
				if p >= n {
					t.Fatalf("n=%d round=%d idx=%d: partner %d out of range", n, round, idx, p)
				}
				if back := rrPartner(n, round, p); back != idx {
					t.Fatalf("n=%d round=%d: %d→%d but %d→%d", n, round, idx, p, p, back)
				}
				if idx < p {
					met[[2]int{idx, p}]++
				}
			}
			wantByes := n % 2
			if n == 1 {
				wantByes = 1
			}
			if byes != wantByes {
				t.Fatalf("n=%d round=%d: %d byes, want %d", n, round, byes, wantByes)
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if met[[2]int{i, j}] != 1 {
					t.Fatalf("n=%d: pair (%d,%d) met %d times", n, i, j, met[[2]int{i, j}])
				}
			}
		}
	}
}

// --- ring segment exchange ---

func TestExchangeSegmentsRing(t *testing.T) {
	const p = 3
	c := cluster.New(p, testComm())
	_, err := c.Run(func(r *cluster.Rank) error {
		sendTo, recvFrom := (r.ID()+1)%p, (r.ID()+p-1)%p
		out := Payload{
			Comps: []int32{int32(100 + r.ID())},
			Edges: []wire.WEdge{{U: int32(r.ID()), V: int32(sendTo), W: uint64(10 * r.ID()), ID: int32(r.ID())}},
		}
		in, err := ExchangeSegments(r, sendTo, recvFrom, out, 8)
		if err != nil {
			return err
		}
		if len(in.Comps) != 1 || in.Comps[0] != int32(100+recvFrom) {
			return fmt.Errorf("rank %d: comps %v", r.ID(), in.Comps)
		}
		if len(in.Edges) != 1 || in.Edges[0].ID != int32(recvFrom) || in.Edges[0].W != uint64(10*recvFrom) {
			return fmt.Errorf("rank %d: edges %+v", r.ID(), in.Edges)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExchangeSegmentsAsymmetricSizes checks the interleaved loop when the
// two directions carry very different chunk counts (nSend ≠ nRecv).
func TestExchangeSegmentsAsymmetricSizes(t *testing.T) {
	const p = 2
	c := cluster.New(p, testComm())
	_, err := c.Run(func(r *cluster.Rank) error {
		var out Payload
		if r.ID() == 0 {
			out.Comps = make([]int32, 5000) // many chunks at chunk=64
			for i := range out.Comps {
				out.Comps[i] = int32(i)
			}
		} else {
			out.Comps = []int32{7} // single chunk
		}
		peer := 1 - r.ID()
		in, err := ExchangeSegments(r, peer, peer, out, 64)
		if err != nil {
			return err
		}
		if r.ID() == 0 {
			if len(in.Comps) != 1 || in.Comps[0] != 7 {
				return fmt.Errorf("rank 0: comps %v", in.Comps)
			}
		} else {
			if len(in.Comps) != 5000 || in.Comps[4999] != 4999 {
				return fmt.Errorf("rank 1: %d comps", len(in.Comps))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// --- chunked protocol edge cases over both backends ---

// runChunkedCase executes fn as a 2-rank program over the in-process
// backend and again over real loopback TCP, failing on any rank error.
func runChunkedCase(t *testing.T, name string, fn func(r *cluster.Rank) error) {
	t.Helper()
	if _, err := cluster.New(2, testComm()).Run(fn); err != nil {
		t.Fatalf("%s over Mem: %v", name, err)
	}
	run := launchTCPRanks(t, 2, transport.TCPConfig{}, fn)
	if !run.wait(30 * time.Second) {
		t.Fatalf("%s over TCP hung", name)
	}
	for r, err := range run.errs {
		if err != nil {
			t.Fatalf("%s over TCP: rank %d: %v", name, r, err)
		}
	}
}

// TestChunkedEdgeCasesBothBackends drives the chunked protocol through its
// boundary conditions — empty payload, chunk=1, chunk larger than the
// payload, the chunk<=0 default path, and a sender/receiver chunk-size
// mismatch — over both the in-process and the TCP backend.
func TestChunkedEdgeCasesBothBackends(t *testing.T) {
	const tag = tagForest // any named protocol tag works for raw transfers
	mkPayload := func(n int) []byte {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i*31 + 1)
		}
		return data
	}
	check := func(got []byte, n int) error {
		if len(got) != n {
			return fmt.Errorf("got %d bytes, want %d", len(got), n)
		}
		for i := range got {
			if got[i] != byte(i*31+1) {
				return fmt.Errorf("byte %d corrupted", i)
			}
		}
		return nil
	}
	cases := []struct {
		name           string
		payload, chunk int
	}{
		{"empty-payload", 0, 8},
		{"chunk-one", 500, 1},
		{"chunk-exceeds-payload", 37, 4096},
		{"chunk-default-path", 300, 0},
		{"chunk-negative-default-path", 300, -5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runChunkedCase(t, tc.name, func(r *cluster.Rank) error {
				if r.ID() == 0 {
					sendChunked(r, 1, tag, mkPayload(tc.payload), tc.chunk)
					return nil
				}
				got, err := recvChunked(r, 0, tag)
				if err != nil {
					return err
				}
				return check(got, tc.payload)
			})
		})
	}

	// Sender/receiver chunk-size mismatch: reassembly is driven by the
	// sender's chunk-count header, so the receiver-side chunk parameter
	// (API symmetry only) must not matter.
	t.Run("chunk-size-mismatch", func(t *testing.T) {
		runChunkedCase(t, "chunk-size-mismatch", func(r *cluster.Rank) error {
			want := Payload{Comps: []int32{1, 2, 3, 4, 5}, Edges: []wire.WEdge{{U: 1, V: 2, W: 9, ID: 4}}}
			if r.ID() == 0 {
				SendToLeader(r, 1, want, 8) // tiny sender chunks
				return nil
			}
			got, err := RecvFromMember(r, 0, 1<<20) // huge receiver chunk hint
			if err != nil {
				return err
			}
			if len(got.Comps) != 5 || got.Comps[4] != 5 || len(got.Edges) != 1 || got.Edges[0].W != 9 {
				return fmt.Errorf("mismatch case payload %+v", got)
			}
			return nil
		})
	})

	// Full-duplex mismatch: the two directions of one exchange use
	// different chunk sizes (each side's header describes its own stream).
	t.Run("duplex-chunk-mismatch", func(t *testing.T) {
		runChunkedCase(t, "duplex-chunk-mismatch", func(r *cluster.Rank) error {
			chunk := 16
			if r.ID() == 1 {
				chunk = 1000
			}
			peer := 1 - r.ID()
			got, err := exchangeChunked(r, peer, peer, tag, mkPayload(700), chunk)
			if err != nil {
				return err
			}
			return check(got, 700)
		})
	})
}
