package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// ReduceOp is an elementwise combination for Allreduce.
type ReduceOp int

// Supported reduction operators.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

func (op ReduceOp) apply(a, b int64) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	default:
		panic(fmt.Sprintf("cluster: unknown reduce op %d", op))
	}
}

// Control tags of the point-to-point collective and report protocols. They
// sit in their own band, far from the application tags (merge: small
// positive; composed collectives: around -100).
const (
	tagCollectUp   int32 = -9001
	tagCollectDown int32 = -9002
	tagReport      int32 = -9003
)

// encodeCollect packs a rank's contribution (or the resolved round):
// clock, has-values flag, value count, values, as little-endian uint64s.
func encodeCollect(now float64, vals []int64, hasVals bool) []byte {
	flag := uint64(0)
	if hasVals {
		flag = 1
	}
	buf := make([]byte, 0, 24+8*len(vals))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(now))
	buf = binary.LittleEndian.AppendUint64(buf, flag)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(vals)))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return buf
}

// decodeCollect unpacks encodeCollect's payload; vals is nil unless the
// flag is set.
func decodeCollect(buf []byte) (now float64, vals []int64, hasVals bool) {
	if len(buf) < 24 || len(buf)%8 != 0 || binary.LittleEndian.Uint64(buf[16:]) != uint64(len(buf)/8-3) {
		panic(commFailure{fmt.Errorf("cluster: malformed collective payload of %d bytes", len(buf))})
	}
	now = math.Float64frombits(binary.LittleEndian.Uint64(buf))
	if hasVals = binary.LittleEndian.Uint64(buf[8:]) == 1; hasVals {
		vals = make([]int64, len(buf)/8-3)
		for i := range vals {
			vals[i] = int64(binary.LittleEndian.Uint64(buf[24+8*i:]))
		}
	}
	return now, vals, hasVals
}

// resolve runs one synchronization round and returns the maximum virtual
// clock across all ranks and, for allreduce, the reduced vector in a fresh
// slice (nil for a barrier, whose vals is nil). It is a flat
// gather-to-0/broadcast exchange of control messages over the rank's
// transport endpoint, the same on the in-process mailboxes as over TCP.
// Control traffic carries no α–β charge and no byte counters: the callers
// price the collective analytically, so in-process and distributed runs
// produce the same virtual clocks bit for bit. Rank 0 folds the
// contributions in rank order, so the result does not depend on arrival
// order. A rank that fails mid-round aborts the endpoints (see
// AbortBroadcast), which unblocks every rank waiting here.
func (r *Rank) resolve(vals []int64, op ReduceOp) (float64, []int64) {
	p := r.c.p
	hasVals := vals != nil
	if p == 1 {
		return r.now, slices.Clone(vals)
	}
	if r.id != 0 {
		r.sendCtrl(0, tagCollectUp, encodeCollect(r.now, vals, hasVals))
		maxNow, acc, _ := decodeCollect(r.recvCtrl(0, tagCollectDown))
		return maxNow, acc
	}
	maxNow, acc := r.now, slices.Clone(vals)
	for src := 1; src < p; src++ {
		now, rv, rHas := decodeCollect(r.recvCtrl(src, tagCollectUp))
		if now > maxNow {
			maxNow = now
		}
		if rHas != hasVals {
			panic(fmt.Sprintf("cluster: collective mismatch: rank %d %v values, rank 0 %v", src, rHas, hasVals))
		}
		if rHas {
			if len(rv) != len(acc) {
				panic(fmt.Sprintf("cluster: allreduce length mismatch %d vs %d", len(rv), len(acc)))
			}
			for i, v := range rv {
				acc[i] = op.apply(acc[i], v)
			}
		}
	}
	down := encodeCollect(maxNow, acc, hasVals)
	for dst := 1; dst < p; dst++ {
		r.sendCtrl(dst, tagCollectDown, down)
	}
	return maxNow, acc
}

// Barrier synchronizes all ranks: every clock advances to the maximum
// across ranks plus the modeled dissemination-barrier cost.
func (r *Rank) Barrier() {
	maxNow, _ := r.resolve(nil, OpSum)
	r.chargeCommUntil(maxNow + r.c.comm.BarrierSeconds(r.c.p))
}

// Allreduce combines vals elementwise across all ranks with op and returns
// the result (a fresh slice). Clocks synchronize to the maximum plus the
// modeled Rabenseifner allreduce cost for the vector size.
func (r *Rank) Allreduce(vals []int64, op ReduceOp) []int64 {
	if vals == nil {
		vals = []int64{}
	}
	maxNow, red := r.resolve(vals, op)
	r.chargeCommUntil(maxNow + r.c.comm.AllreduceSeconds(int64(8*len(vals)), r.c.p))
	return red
}

// AllreduceScalar is Allreduce for a single value.
func (r *Rank) AllreduceScalar(v int64, op ReduceOp) int64 {
	return r.Allreduce([]int64{v}, op)[0]
}

// StatAllreduce combines vals elementwise across all ranks with op and
// returns the result without charging any virtual time: it is for
// exchanging bookkeeping about the simulation (per-rank peaks, iteration
// counts) that the modeled MPI program would not send, so the synchronized
// clocks — and every golden simulated-time report — stay exactly as if the
// call were absent. The collective still synchronizes ranks in real time,
// so all participants must call it at the same program point.
func (r *Rank) StatAllreduce(vals []int64, op ReduceOp) []int64 {
	if vals == nil {
		vals = []int64{}
	}
	_, red := r.resolve(vals, op)
	return red
}
