package wire

import (
	"bytes"
	"testing"
)

// FuzzTakeSections feeds arbitrary bytes to every decoder; none may panic,
// and any accepted value must re-encode to a decodable buffer.
func FuzzTakeSections(f *testing.F) {
	f.Add(AppendInt32s(nil, []int32{1, -2, 3}))
	f.Add(AppendUint64s(nil, []uint64{7}))
	f.Add(AppendWEdges(nil, []WEdge{{U: 1, V: 2, W: 3, ID: 4}}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})

	f.Fuzz(func(t *testing.T, data []byte) {
		if vals, _, err := TakeInt32s(data); err == nil {
			round := AppendInt32s(nil, vals)
			if back, _, err := TakeInt32s(round); err != nil || len(back) != len(vals) {
				t.Fatalf("int32 round trip: %v", err)
			}
		}
		if vals, _, err := TakeUint64s(data); err == nil {
			round := AppendUint64s(nil, vals)
			if back, _, err := TakeUint64s(round); err != nil || len(back) != len(vals) {
				t.Fatalf("uint64 round trip: %v", err)
			}
		}
		if es, _, err := TakeWEdges(data); err == nil {
			round := AppendWEdges(nil, es)
			if back, _, err := TakeWEdges(round); err != nil || len(back) != len(es) {
				t.Fatalf("edge round trip: %v", err)
			}
		}
		if b, _, err := TakeBytes(data); err == nil {
			round := AppendBytes(nil, b)
			if back, _, err := TakeBytes(round); err != nil || !bytes.Equal(back, b) {
				t.Fatalf("bytes round trip: %v", err)
			}
		}
		TakeUint64(data)
	})
}

// FuzzTakeFrame feeds arbitrary bytes to the frame decoder: it must never
// panic, every accepted frame must round-trip, and corrupting any payload,
// checksum, length, or magic byte of a valid frame must be detected.
func FuzzTakeFrame(f *testing.F) {
	f.Add(AppendFrame(nil, 7, []byte("payload")), -1)
	f.Add(AppendFrame(nil, -3, nil), 0)
	f.Add([]byte{}, 5)
	f.Add([]byte{0x4D, 0x53, 0x54, 0x01}, 2) // magic then truncation
	f.Add(AppendFrame(AppendFrame(nil, 1, []byte{1}), 2, []byte{2}), 20)

	f.Fuzz(func(t *testing.T, data []byte, flip int) {
		// Arbitrary input: decode must not panic, and whatever is accepted
		// must re-encode to an identical decode.
		if tag, payload, rest, err := TakeFrame(data); err == nil {
			round := AppendFrame(nil, tag, payload)
			tag2, payload2, _, err := TakeFrame(round)
			if err != nil || tag2 != tag || !bytes.Equal(payload2, payload) {
				t.Fatalf("frame round trip: tag %d vs %d, err %v", tag, tag2, err)
			}
			_ = rest
		}

		// Corruption: flipping any byte of a well-formed frame outside the
		// tag field must be rejected (the tag carries no redundancy; the
		// payload is covered by the CRC, the header by magic/length/CRC).
		frame := AppendFrame(nil, 11, data)
		if flip >= 0 && flip < len(frame) && (flip < 4 || flip >= 8) {
			bad := append([]byte(nil), frame...)
			bad[flip] ^= 1
			if _, payload, _, err := TakeFrame(bad); err == nil {
				// A length-field flip may still decode if the new length
				// points at bytes whose CRC happens to match — impossible
				// here because the frame is exactly one payload long, so a
				// longer length truncates and a shorter one changes the CRC.
				t.Fatalf("flipped byte %d accepted (payload %d bytes)", flip, len(payload))
			}
		}

		// Truncating a valid frame anywhere must error.
		if len(frame) > 0 {
			cut := len(frame) - 1
			if flip > 0 {
				cut = flip % len(frame)
			}
			if _, _, _, err := TakeFrame(frame[:cut]); err == nil {
				t.Fatalf("truncation to %d bytes accepted", cut)
			}
		}
	})
}
