package merge

import (
	"errors"
	"fmt"
	"sync/atomic"

	"mndmst/internal/cluster"
	"mndmst/internal/cost"
	"mndmst/internal/wire"
)

// Message tags used by the merge protocol. Each logical stream uses one
// tag; chunking relies on the transport's per-pair FIFO ordering.
const (
	tagDeltas   = 100
	tagSegment  = 101
	tagToLeader = 102
	tagForest   = 103
)

// DefaultChunk is the default payload chunk size for the multi-phase
// exchanges ("the processors communicate these boundary vertices in
// multiple phases", §3.1). Small enough to exercise multi-phase behaviour
// at reproduction scale.
const DefaultChunk = 16 << 10

// DefaultMaxPayload is the default bound on one reassembled chunked
// payload, matching the wire layer's per-frame ceiling: no single delta,
// segment, or forest transfer may exceed it.
const DefaultMaxPayload = int64(1) << 30

// ErrPayloadBound reports a chunked transfer whose header or cumulative
// size exceeds the configured bound. The bound is what turns a corrupt or
// hostile chunk-count header (say n = 2^60) into an immediate protocol
// error instead of an unbounded receive-and-allocate loop.
var ErrPayloadBound = errors.New("merge: chunked payload exceeds bound")

// maxPayload holds the configured payload bound; zero means default.
var maxPayload atomic.Int64

// MaxPayload reports the current bound on one reassembled chunked payload.
func MaxPayload() int64 {
	if v := maxPayload.Load(); v > 0 {
		return v
	}
	return DefaultMaxPayload
}

// SetMaxPayload sets the bound on one reassembled chunked payload;
// non-positive restores DefaultMaxPayload. It applies process-wide and is
// safe to call concurrently with running exchanges (each transfer reads the
// bound as it validates).
func SetMaxPayload(n int64) {
	if n < 0 {
		n = 0
	}
	maxPayload.Store(n)
}

// chunkSpan reports the byte range of chunk i of a payload split into
// chunk-sized pieces.
func chunkSpan(payloadLen, chunk, i int) (lo, hi int) {
	lo = i * chunk
	hi = lo + chunk
	if hi > payloadLen {
		hi = payloadLen
	}
	return lo, hi
}

// numChunks reports how many chunks sendChunked splits a payload into.
func numChunks(payloadLen, chunk int) int {
	return (payloadLen + chunk - 1) / chunk
}

// sendChunked transmits payload to dst in chunks of at most chunk bytes,
// preceded by a header carrying the chunk count. Transmission is
// asynchronous (Isend): the caller returns once the chunks sit in the
// transport's bounded outbound queue, so a rank that still owes the
// cluster receives is never stuck inside a kernel write.
func sendChunked(r *cluster.Rank, dst, tag int, payload []byte, chunk int) {
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	n := numChunks(len(payload), chunk)
	r.Isend(dst, tag, wire.AppendUint64(nil, uint64(n)))
	for i := 0; i < n; i++ {
		lo, hi := chunkSpan(len(payload), chunk, i)
		r.Isend(dst, tag, payload[lo:hi])
	}
}

// parseChunkHeader validates a chunk-count header from src against the
// payload bound. Every chunk of a non-empty transfer carries at least one
// byte, so a count above MaxPayload() can never belong to a legal payload —
// rejecting it here stops a corrupt header before the first allocation.
func parseChunkHeader(src int, head []byte) (uint64, error) {
	n, _, err := wire.TakeUint64(head)
	if err != nil {
		return 0, fmt.Errorf("merge: chunk header from rank %d: %w", src, err)
	}
	if bound := MaxPayload(); n > uint64(bound) {
		return 0, fmt.Errorf("%w: chunk count %d from rank %d implies > %d bytes", ErrPayloadBound, n, src, bound)
	}
	return n, nil
}

// assembler accumulates the chunks of one inbound transfer while enforcing
// the payload bound cumulatively, so a sender whose header lied small but
// whose chunks run large is still cut off at the bound.
type assembler struct {
	src   int
	buf   []byte
	total int64
}

// add appends one received chunk. Empty chunks are protocol errors: the
// sender never produces them (a zero-length payload has zero chunks), and
// admitting them would let a hostile count spin the receive loop without
// tripping the byte bound.
func (a *assembler) add(chunk []byte) error {
	if len(chunk) == 0 {
		return fmt.Errorf("merge: empty chunk from rank %d (protocol error)", a.src)
	}
	a.total += int64(len(chunk))
	if bound := MaxPayload(); a.total > bound {
		return fmt.Errorf("%w: %d bytes from rank %d, bound %d", ErrPayloadBound, a.total, a.src, bound)
	}
	a.buf = append(a.buf, chunk...)
	return nil
}

// recvChunked receives a payload sent by sendChunked, validating the chunk
// count and the cumulative size against MaxPayload.
func recvChunked(r *cluster.Rank, src, tag int) ([]byte, error) {
	n, err := parseChunkHeader(src, r.Recv(src, tag))
	if err != nil {
		return nil, err
	}
	a := assembler{src: src}
	for i := uint64(0); i < n; i++ {
		if err := a.add(r.Recv(src, tag)); err != nil {
			return nil, err
		}
	}
	return a.buf, nil
}

// exchangeChunked runs one full-duplex chunked transfer: payload goes to
// sendTo while a payload arrives from recvFrom, with sends and receives
// interleaved chunk by chunk. The interleaving is the deadlock-freedom
// argument: at most one chunk (plus the header) is enqueued ahead of each
// receive, so the in-flight bytes per link stay bounded by roughly one
// chunk regardless of payload size — no schedule of bounded send queues,
// socket buffers, and receive windows can wedge, because every rank
// drains its inbound stream at the same rate it fills its outbound one.
// For a pairwise exchange sendTo == recvFrom; for a ring step they differ.
func exchangeChunked(r *cluster.Rank, sendTo, recvFrom, tag int, payload []byte, chunk int) ([]byte, error) {
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	nSend := numChunks(len(payload), chunk)
	r.Isend(sendTo, tag, wire.AppendUint64(nil, uint64(nSend)))
	nRecv, err := parseChunkHeader(recvFrom, r.Recv(recvFrom, tag))
	if err != nil {
		return nil, err
	}
	a := assembler{src: recvFrom}
	for i := 0; i < nSend || uint64(i) < nRecv; i++ {
		if i < nSend {
			lo, hi := chunkSpan(len(payload), chunk, i)
			r.Isend(sendTo, tag, payload[lo:hi])
		}
		if uint64(i) < nRecv {
			if err := a.add(r.Recv(recvFrom, tag)); err != nil {
				return nil, err
			}
		}
	}
	return a.buf, nil
}

// rrRounds reports the number of rounds of the round-robin schedule over n
// participants: n-1 for even n, n for odd n (each participant sits out one
// round).
func rrRounds(n int) int {
	if n%2 == 0 {
		return n - 1
	}
	return n
}

// rrPartner reports who participant idx exchanges with in the given round
// of the circle-method round-robin tournament over n participants, or -1
// if idx sits the round out (odd n only). Every unordered pair {i, j}
// meets in exactly one of the rrRounds(n) rounds, each round is a perfect
// matching, and both sides compute the same pairing independently — which
// is what lets ExchangeDeltas replace "send to everyone, then receive from
// everyone" with a schedule where each rank talks to exactly one peer at a
// time.
func rrPartner(n, round, idx int) int {
	if n < 2 {
		return -1
	}
	m := n
	if m%2 == 1 {
		m++ // add a virtual participant; pairing with it is a bye
	}
	q := m - 1 // modulus and fixed participant
	var p int
	switch {
	case idx == q:
		// The fixed participant meets whoever solves 2j ≡ round (mod q);
		// (q+1)/2 is 2's inverse modulo the odd q.
		p = round * ((q + 1) / 2) % q
	default:
		p = ((round-idx)%q + q) % q
		if p == idx {
			p = q
		}
	}
	if p >= n {
		return -1 // partner is the virtual participant: bye
	}
	return p
}

// encodeDeltas serializes parent deltas.
func encodeDeltas(ds []Delta) []byte {
	olds := make([]int32, len(ds))
	news := make([]int32, len(ds))
	for i, d := range ds {
		olds[i] = d.Old
		news[i] = d.New
	}
	buf := wire.AppendInt32s(nil, olds)
	return wire.AppendInt32s(buf, news)
}

// decodeDeltas parses parent deltas.
func decodeDeltas(buf []byte) ([]Delta, error) {
	olds, buf, err := wire.TakeInt32s(buf)
	if err != nil {
		return nil, err
	}
	news, _, err := wire.TakeInt32s(buf)
	if err != nil {
		return nil, err
	}
	if len(olds) != len(news) {
		return nil, fmt.Errorf("merge: delta arrays mismatch %d vs %d", len(olds), len(news))
	}
	ds := make([]Delta, len(olds))
	for i := range ds {
		ds[i] = Delta{Old: olds[i], New: news[i]}
	}
	return ds, nil
}

// ExchangeDeltas performs the ghost parent-id exchange of §3.3 among the
// active ranks: every active rank exchanges its local parent deltas with
// every other active rank in multiple chunked phases. The calling rank must
// appear in active; inactive ranks must not call. Returns the remote deltas
// concatenated in ascending sender order, so the combined relabeling is
// deterministic.
//
// The schedule is a round-robin tournament of pairwise full-duplex
// exchanges (rrPartner), each interleaving its sends and receives chunk by
// chunk. No rank ever owes a receive while sitting in a blocking send, so
// the exchange cannot deadlock over bounded buffers — unlike the previous
// send-all-then-receive-all order, which wedged as soon as the per-pair
// payload outgrew the end-to-end buffering.
func ExchangeDeltas(r *cluster.Rank, active []int, local []Delta, chunk int) ([]Delta, cost.Work, error) {
	var w cost.Work
	payload := encodeDeltas(local)
	me := -1
	for i, id := range active {
		if id == r.ID() {
			me = i
			break
		}
	}
	if me < 0 {
		return nil, w, fmt.Errorf("merge: rank %d not in active set %v", r.ID(), active)
	}
	n := len(active)
	parts := make([][]byte, n)
	for round, q := 0, rrRounds(n); round < q; round++ {
		pi := rrPartner(n, round, me)
		if pi < 0 {
			continue // bye round (odd participant count)
		}
		buf, err := exchangeChunked(r, active[pi], active[pi], tagDeltas, payload, chunk)
		if err != nil {
			return nil, w, err
		}
		parts[pi] = buf
	}
	var remote []Delta
	for i, buf := range parts {
		if i == me {
			continue
		}
		ds, err := decodeDeltas(buf)
		if err != nil {
			return nil, w, err
		}
		remote = append(remote, ds...)
	}
	w.HashOps = int64(len(remote) + len(local))
	return remote, w, nil
}

// Payload is a set of components with their incident edges, as moved
// between ranks by segment exchanges and leader merges.
type Payload struct {
	Comps []int32
	Edges []wire.WEdge
}

// encodePayload serializes a component transfer.
func encodePayload(p Payload) []byte {
	buf := wire.AppendInt32s(nil, p.Comps)
	return wire.AppendWEdges(buf, p.Edges)
}

// decodePayload parses a component transfer.
func decodePayload(buf []byte) (Payload, error) {
	comps, buf, err := wire.TakeInt32s(buf)
	if err != nil {
		return Payload{}, err
	}
	edges, _, err := wire.TakeWEdges(buf)
	if err != nil {
		return Payload{}, err
	}
	return Payload{Comps: comps, Edges: edges}, nil
}

// ExchangeSegments runs one ring step of the §3.4 segment exchange: p goes
// to sendTo while the next segment arrives from recvFrom, chunk-interleaved
// so the whole ring progresses in lockstep without any rank blocking in a
// send. Every member of the ring must call it at the same program point.
func ExchangeSegments(r *cluster.Rank, sendTo, recvFrom int, p Payload, chunk int) (Payload, error) {
	buf, err := exchangeChunked(r, sendTo, recvFrom, tagSegment, encodePayload(p), chunk)
	if err != nil {
		return Payload{}, err
	}
	return decodePayload(buf)
}

// SendToLeader ships everything a rank owns to its group leader. The send
// is asynchronous: members enqueue and move on to the next collective while
// the leader — which only receives during a gather, so it always makes
// progress — drains the streams one member at a time.
func SendToLeader(r *cluster.Rank, leader int, p Payload, chunk int) {
	sendChunked(r, leader, tagToLeader, encodePayload(p), chunk)
}

// RecvFromMember receives a member's full state at the leader.
func RecvFromMember(r *cluster.Rank, member int, chunk int) (Payload, error) {
	buf, err := recvChunked(r, member, tagToLeader)
	if err != nil {
		return Payload{}, err
	}
	return decodePayload(buf)
}

// SendForest ships chosen MST edge ids to dst (final result gathering).
func SendForest(r *cluster.Rank, dst int, ids []int32, chunk int) {
	sendChunked(r, dst, tagForest, wire.AppendInt32s(nil, ids), chunk)
}

// RecvForest receives chosen MST edge ids from src.
func RecvForest(r *cluster.Rank, src int, chunk int) ([]int32, error) {
	buf, err := recvChunked(r, src, tagForest)
	if err != nil {
		return nil, err
	}
	ids, _, err := wire.TakeInt32s(buf)
	return ids, err
}
