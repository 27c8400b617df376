package gpusim

import "testing"

// BenchmarkLRUTouch times the simulator's innermost operation on the
// default SM cache (512 lines) at its two extremes: a working set that
// stays resident (every touch a hit: lookup + move-to-front) and an
// ascending cyclic scan over more lines than fit (every touch a miss that
// evicts: lookup + two hash-chain edits + list splice) — the stream
// LinearBackward's dW trace used to issue 1.6 M times per launch.
func BenchmarkLRUTouch(b *testing.B) {
	for _, bc := range []struct {
		name  string
		lines int64
	}{{"hits", 256}, {"thrash", 2816}} {
		b.Run(bc.name, func(b *testing.B) {
			c := newSMContext(DefaultConfig()).cache
			for l := int64(0); l < bc.lines; l++ {
				c.touch(l * 32)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i, l := 0, int64(0); i < b.N; i++ {
				c.touch(l * 32)
				if l++; l == bc.lines {
					l = 0
				}
			}
		})
	}
}

// BenchmarkKernelLaunchReset times an empty launch on the default device:
// checking a set of 82 SM contexts out of the shared free list, resetting
// each to a cold cache and returning them — the fixed cost every one of a batch's ~13 launches
// pays before its first access.
func BenchmarkKernelLaunchReset(b *testing.B) {
	d := NewDevice(DefaultConfig())
	d.StartKernel("warm").Finish()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.StartKernel("empty").Finish()
	}
}
