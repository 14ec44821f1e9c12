package parutil

import (
	"sync/atomic"
	"testing"
)

func BenchmarkForSum(b *testing.B) {
	const n = 1 << 20
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum int64
		For(n, 1<<14, func(lo, hi int) {
			var s int64
			for j := lo; j < hi; j++ {
				s += data[j]
			}
			atomic.AddInt64(&sum, s)
		})
	}
}

func BenchmarkMinSlotPropose(b *testing.B) {
	keys := make([]int64, 1<<16)
	for i := range keys {
		keys[i] = int64((i * 2654435761) & 0xffffff)
	}
	less := func(x, y int64) bool {
		if keys[x] != keys[y] {
			return keys[x] < keys[y]
		}
		return x < y
	}
	var s MinSlot
	s.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Propose(int64(i&0xffff), less)
	}
}
