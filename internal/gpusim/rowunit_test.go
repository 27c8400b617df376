package gpusim

import (
	"math/rand"
	"slices"
	"testing"
)

// checkRowUnit holds the row unit to the line-by-line simulation on one
// stream. Two contexts of cacheLines 32-byte lines read the same rows of
// rowLines lines out of two line-aligned matrices (12 and 20 rows; the second
// does not start on a multiple of the row size): fast after RowUnit, ref
// line by line. A stream byte selects matrix and row; 0xff is a read that is
// no whole row, which sends fast back to lines mid-stream. Then suffix —
// byte triples, address and size — is read line-granularly across both
// matrices, so the two caches must agree in state, not only in totals.
// Counters are compared after every read and the LRU order at the end.
// It reports whether fast ran the stream in the row unit to its end.
func checkRowUnit(t *testing.T, cacheLines, rowLines int, stream, suffix []byte) bool {
	t.Helper()
	const line = 32
	cfg := Config{NumSMs: 1, CacheLineBytes: line, CacheBytesPerSM: int64(cacheLines) * line}
	fast, ref := newSMContext(cfg), newSMContext(cfg)
	rowBytes := int64(rowLines) * line
	fast.RowUnit(rowBytes)
	if want := rowLines >= 2 && rowLines <= cacheLines; (fast.rowBytes != 0) != want {
		t.Fatalf("C=%d L=%d: row unit entered = %v, want %v", cacheLines, rowLines, fast.rowBytes != 0, want)
	}
	rows := [2]int64{12, 20}
	bases := [2]int64{0, rows[0]*rowBytes + line}
	region := bases[1] + rows[1]*rowBytes

	read := func(step int, addr, size int64) {
		t.Helper()
		fast.Read(addr, size)
		ref.Read(addr, size)
		if got, want := tallies(fast), tallies(ref); got != want {
			t.Fatalf("C=%d L=%d step %d Read(%d, %d): loads/hits/stores/flops %v, line by line %v",
				cacheLines, rowLines, step, addr, size, got, want)
		}
	}
	for i, b := range stream {
		if b == 0xff {
			read(i, bases[0]+rowBytes/2+4, rowBytes/2+line)
			continue
		}
		m := int(b >> 7)
		read(i, bases[m]+int64(b&0x7f)%rows[m]*rowBytes, rowBytes)
	}
	inRows := fast.rowBytes != 0
	for i := 0; i+2 < len(suffix); i += 3 {
		addr := (int64(suffix[i])<<8 | int64(suffix[i+1])) * region >> 16
		read(len(stream)+i/3, addr, 1+3*int64(suffix[i+2]))
	}
	if fast.rowBytes != 0 {
		fast.lineUnit()
	}
	if got, want := fast.cache.order(), ref.cache.order(); !slices.Equal(got, want) {
		t.Fatalf("C=%d L=%d: LRU state differs from the line-by-line stream's\n got %v\nwant %v", cacheLines, rowLines, got, want)
	}
	return inRows
}

// rowUnitShape maps two fuzzed words onto a cache of 1–600 lines and a row of
// 1–80: L | C, L ∤ C, C < 2L and L > C (refused) are all a few mutations apart.
func rowUnitShape(c uint16, l uint8) (cacheLines, rowLines int) {
	return 1 + int(c)%600, 1 + int(l)%80
}

// FuzzRowUnitLRU: whatever the cache size, the row width and the stream, the
// row unit counts what the line-by-line simulation counts and leaves the
// state it leaves. The committed corpus (testdata/fuzz) holds train-heavy's geometry (512
// lines, 68-line rows: seven rows and 36 lines of an eighth), a cache of less
// than two rows, a row that divides the cache, one wider than the cache, and
// a stream that leaves the row unit half way.
func FuzzRowUnitLRU(f *testing.F) {
	f.Fuzz(func(t *testing.T, c uint16, l uint8, stream, suffix []byte) {
		cacheLines, rowLines := rowUnitShape(c, l)
		checkRowUnit(t, cacheLines, rowLines, stream, suffix)
	})
}

// TestRowUnitMatchesLines is the fuzz target's property on a fixed sample of
// its input space, for tier-1: random shapes plus the named ones, streams
// with short reuse distances (so rows hit, miss and sit in the partial slot)
// and line-granular suffixes.
func TestRowUnitMatchesLines(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	named := [][2]int{{512, 68}, {512, 2}, {512, 64}, {100, 68}, {68, 68}, {69, 68}, {7, 3}, {3, 7}, {512, 1}, {135, 67}}
	var inRows, partial int
	for trial := 0; trial < 600; trial++ {
		cacheLines, rowLines := rowUnitShape(uint16(rng.Intn(1<<16)), uint8(rng.Intn(256)))
		if trial < 10*len(named) {
			cacheLines, rowLines = named[trial%len(named)][0], named[trial%len(named)][1]
		}
		stream := make([]byte, rng.Intn(300))
		window := 1 + rng.Intn(32)
		for i := range stream {
			stream[i] = byte(rng.Intn(window)) | byte(rng.Intn(2))<<7
			if rng.Intn(400) == 0 {
				stream[i] = 0xff
			}
		}
		suffix := make([]byte, 3*rng.Intn(12))
		rng.Read(suffix)
		if checkRowUnit(t, cacheLines, rowLines, stream, suffix) {
			inRows++
			if cacheLines%rowLines != 0 {
				partial++
			}
		}
	}
	if inRows < 200 || partial < 100 {
		t.Fatalf("%d streams ran in the row unit, %d of them with a partial row; the sample must exercise both", inRows, partial)
	}
}
