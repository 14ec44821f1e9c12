// Package wire provides the compact binary encoding used for all simulated
// network payloads: typed slices serialized little-endian with a length
// prefix. Keeping encoding in one place makes the byte counts the
// communication cost model charges consistent across subsystems.
package wire

import (
	"encoding/binary"
	"fmt"
)

// AppendInt32s appends a length-prefixed []int32 to buf.
func AppendInt32s(buf []byte, vals []int32) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(vals)))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return buf
}

// TakeInt32s decodes a length-prefixed []int32 from buf, returning the
// values and the remaining bytes.
func TakeInt32s(buf []byte) ([]int32, []byte, error) {
	if len(buf) < 8 {
		return nil, nil, fmt.Errorf("wire: short buffer for int32 slice header")
	}
	n := binary.LittleEndian.Uint64(buf)
	buf = buf[8:]
	// Divide rather than multiply: 4*n overflows for hostile counts.
	if n > uint64(len(buf))/4 {
		return nil, nil, fmt.Errorf("wire: int32 slice truncated: want %d values, have %d bytes", n, len(buf))
	}
	vals := make([]int32, n)
	for i := range vals {
		vals[i] = int32(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
	}
	return vals, buf, nil
}

// AppendUint64s appends a length-prefixed []uint64 to buf.
func AppendUint64s(buf []byte, vals []uint64) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(vals)))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	return buf
}

// TakeUint64s decodes a length-prefixed []uint64 from buf.
func TakeUint64s(buf []byte) ([]uint64, []byte, error) {
	if len(buf) < 8 {
		return nil, nil, fmt.Errorf("wire: short buffer for uint64 slice header")
	}
	n := binary.LittleEndian.Uint64(buf)
	buf = buf[8:]
	if n > uint64(len(buf))/8 {
		return nil, nil, fmt.Errorf("wire: uint64 slice truncated: want %d values, have %d bytes", n, len(buf))
	}
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = binary.LittleEndian.Uint64(buf)
		buf = buf[8:]
	}
	return vals, buf, nil
}

// AppendBytes appends a length-prefixed raw byte string to buf.
func AppendBytes(buf, b []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(b)))
	return append(buf, b...)
}

// TakeBytes decodes a length-prefixed byte string from buf. The returned
// slice aliases buf.
func TakeBytes(buf []byte) ([]byte, []byte, error) {
	if len(buf) < 8 {
		return nil, nil, fmt.Errorf("wire: short buffer for bytes header")
	}
	n := binary.LittleEndian.Uint64(buf)
	buf = buf[8:]
	if n > uint64(len(buf)) {
		return nil, nil, fmt.Errorf("wire: byte string truncated: want %d bytes, have %d", n, len(buf))
	}
	return buf[:n:n], buf[n:], nil
}

// AppendUint64 appends one raw uint64.
func AppendUint64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

// TakeUint64 decodes one raw uint64.
func TakeUint64(buf []byte) (uint64, []byte, error) {
	if len(buf) < 8 {
		return 0, nil, fmt.Errorf("wire: short buffer for uint64")
	}
	return binary.LittleEndian.Uint64(buf), buf[8:], nil
}

// WEdge is an edge on the wire: endpoints named by component/vertex ids,
// the weight, and the original edge id for MST output assembly.
type WEdge struct {
	U, V int32
	W    uint64
	ID   int32
}

// wedgeBytes is the encoded size of one WEdge.
const wedgeBytes = 4 + 4 + 8 + 4

// AppendWEdges appends a length-prefixed []WEdge to buf.
func AppendWEdges(buf []byte, es []WEdge) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(es)))
	for _, e := range es {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.U))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.V))
		buf = binary.LittleEndian.AppendUint64(buf, e.W)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.ID))
	}
	return buf
}

// TakeWEdges decodes a length-prefixed []WEdge from buf.
func TakeWEdges(buf []byte) ([]WEdge, []byte, error) {
	if len(buf) < 8 {
		return nil, nil, fmt.Errorf("wire: short buffer for edge slice header")
	}
	n := binary.LittleEndian.Uint64(buf)
	buf = buf[8:]
	if n > uint64(len(buf))/wedgeBytes {
		return nil, nil, fmt.Errorf("wire: edge slice truncated: want %d edges, have %d bytes", n, len(buf))
	}
	es := make([]WEdge, n)
	for i := range es {
		es[i].U = int32(binary.LittleEndian.Uint32(buf))
		es[i].V = int32(binary.LittleEndian.Uint32(buf[4:]))
		es[i].W = binary.LittleEndian.Uint64(buf[8:])
		es[i].ID = int32(binary.LittleEndian.Uint32(buf[16:]))
		buf = buf[wedgeBytes:]
	}
	return es, buf, nil
}
