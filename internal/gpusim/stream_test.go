package gpusim

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// order lists the resident lines from most to least recently used.
func (c *lruCache) order() []int64 {
	var keys []int64
	for i := c.head; i >= 0; i = c.slots[i].next {
		keys = append(keys, c.slots[i].key)
	}
	return keys
}

// naiveLRU is the reference the index-based cache is held to: resident
// lines in a slice, most recently used first.
type naiveLRU struct {
	capacity int
	keys     []int64
}

func (n *naiveLRU) touch(line int64) bool {
	i := slices.Index(n.keys, line)
	hit := i >= 0
	if hit {
		n.keys = slices.Delete(n.keys, i, i+1)
	} else if len(n.keys) == n.capacity {
		n.keys = n.keys[:len(n.keys)-1]
	}
	n.keys = slices.Insert(n.keys, 0, line)
	return hit
}

// TestLRUGenerationalReset drives lruCache and a naive slice LRU through
// the same random touch/reset stream: every touch must agree on hit or miss
// and the recency order must agree after every operation. The first stretch
// fills the table in generation 1; the tag is then moved to the last
// generation (as if every one in between had passed without touching those
// buckets) and the next reset wraps it to generation 1 again with the old
// generation-1 words still in place — only the real clear at the wrap keeps
// them from reading as current. The rest of the stream resets at random.
func TestLRUGenerationalReset(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 512} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		c := newLRUCache(capacity)
		ref := &naiveLRU{capacity: capacity}
		lines := int64(3*capacity + 2)
		const wrapAt = 2000
		for op := 0; op < 40000; op++ {
			if op == wrapAt {
				c.tag = -(c.idxMask + 1)
			}
			if op == wrapAt || (op > wrapAt && rng.Intn(300) == 0) {
				c.reset()
				ref.keys = ref.keys[:0]
				if op == wrapAt && c.tag != c.idxMask+1 {
					t.Fatalf("capacity %d: tag %#x after the last generation, want generation 1 (%#x)", capacity, c.tag, c.idxMask+1)
				}
			} else {
				line := rng.Int63n(lines) * 32
				if got, want := c.touch(line), ref.touch(line); got != want {
					t.Fatalf("capacity %d op %d: touch(%d) hit = %v, naive LRU says %v", capacity, op, line, got, want)
				}
			}
			if op%64 == 0 || capacity < 8 {
				if got := c.order(); !slices.Equal(got, ref.keys) {
					t.Fatalf("capacity %d op %d: recency order %v, naive LRU has %v", capacity, op, got, ref.keys)
				}
			}
		}
	}
}

// TestSMContextRetainedBytes: the process keeps NumSMs caches per launch
// open at once (smSets: 2 sets of 82 on train-group at 2 procs), and
// live_heap_mb gates what they retain at 5 %. A slot links by int16 index
// (16 bytes with its key) and a bucket word packs the generation beside the
// chain head into 4 bytes (8 was measured at up to +17 % of live_heap_mb).
// Hold slots + buckets to that.
func TestSMContextRetainedBytes(t *testing.T) {
	sm := newSMContext(DefaultConfig())
	c := sm.cache
	if got := unsafe.Sizeof(c.buckets[0]); got != 4 {
		t.Errorf("a bucket word is %d bytes, want 4", got)
	}
	got := uintptr(len(c.slots))*unsafe.Sizeof(c.slots[0]) + uintptr(len(c.buckets))*unsafe.Sizeof(c.buckets[0])
	const want = 512*16 + 1024*4
	if got > want {
		t.Errorf("an SM cache retains %d bytes in slots and buckets, want at most %d", got, want)
	}
}

// simulateRows is the stream ReadRows stands for, issued line by line.
func simulateRows(sm *SMContext, base, rowBytes int64, rows, scans int) {
	for s := 0; s < scans; s++ {
		for i := 0; i < rows; i++ {
			sm.Read(base+int64(i)*rowBytes, rowBytes)
		}
	}
}

func tallies(sm *SMContext) [4]int64 { return [4]int64{sm.loads, sm.hits, sm.stores, sm.flops} }

// rowPass is one step of a ReadRows property stream: optionally a simulated
// Read (readSize > 0) — after which the context is warm and later passes
// must be refused — then scans passes over rows rows of rowBytes from base.
type rowPass struct {
	readAddr, readSize int64
	base, rowBytes     int64
	rows, scans        int
}

// checkReadRows holds the closed form to the line-by-line stream on one
// sequence. Two contexts of the same geometry receive the same passes, single
// reads, writes and FLOPs — one through ReadRows wherever it agrees to account
// a pass, the other line by line. After every step their loads, hits, stores
// and FLOPs must be equal; a refusal must have touched nothing; and the LRU
// state must be equal at the end, both as the cache holds it once the owed
// lines are settled (no trailing reads) and as later accesses observe it
// (the trailing reads, address and size). It returns how many passes took the
// closed form and how many were refused.
func checkReadRows(t *testing.T, line, capacity int64, passes []rowPass, trailing [][2]int64) (accepted, refused int) {
	t.Helper()
	cfg := Config{NumSMs: 1, CacheLineBytes: line, CacheBytesPerSM: capacity * line}
	fast, ref := newSMContext(cfg), newSMContext(cfg)
	for step, p := range passes {
		if p.readSize > 0 {
			fast.Read(p.readAddr, p.readSize)
			ref.Read(p.readAddr, p.readSize)
		}
		before, order := tallies(fast), fast.cache.order()
		owed, owedLast := fast.owed, fast.owedLast
		if fast.ReadRows(p.base, p.rowBytes, p.rows, p.scans) {
			accepted++
		} else {
			refused++
			if tallies(fast) != before || !slices.Equal(fast.cache.order(), order) ||
				fast.owed != owed || fast.owedLast != owedLast {
				t.Fatalf("step %d: ReadRows refused but changed the context", step)
			}
			simulateRows(fast, p.base, p.rowBytes, p.rows, p.scans)
		}
		simulateRows(ref, p.base, p.rowBytes, p.rows, p.scans)
		fast.Write(p.base, p.rowBytes)
		ref.Write(p.base, p.rowBytes)
		fast.AddFLOPs(int64(p.rows))
		ref.AddFLOPs(int64(p.rows))
		if got, want := tallies(fast), tallies(ref); got != want {
			t.Fatalf("line %d, capacity %d, step %d ReadRows(%d, %d, %d, %d): loads/hits/stores/flops %v, simulated %v",
				line, capacity, step, p.base, p.rowBytes, p.rows, p.scans, got, want)
		}
	}
	for _, r := range trailing {
		fast.Read(r[0], r[1])
		ref.Read(r[0], r[1])
	}
	if got, want := tallies(fast), tallies(ref); got != want {
		t.Fatalf("line %d, capacity %d: after trailing reads loads/hits/stores/flops %v, simulated %v", line, capacity, got, want)
	}
	if len(trailing) == 0 {
		fast.settle()
	}
	if got, want := fast.cache.order(), ref.cache.order(); !slices.Equal(got, want) {
		t.Fatalf("line %d, capacity %d: LRU state differs from the simulated stream's\n got %v\nwant %v", line, capacity, got, want)
	}
	return accepted, refused
}

// TestReadRowsMatchesSimulation is the closed form's property test and the
// tier-1 twin of FuzzReadRowsVsSimulated: random sequences of streamed
// passes — aligned or not, below zero like the weight tile, overlapping
// earlier passes, behind a simulated read — checked by checkReadRows, half of
// them with trailing reads around the passes.
func TestReadRowsMatchesSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	pick := func(lo, hi int) int { return lo + rng.Intn(hi-lo+1) }
	var accepted, refused int
	for trial := 0; trial < 400; trial++ {
		line := []int64{32, 64, 128}[rng.Intn(3)]
		capacity := []int64{1, 2, 7, 512}[rng.Intn(4)]

		// Most trials are small so that a few can be as large as a real
		// layer-1 launch without the simulated side taking seconds.
		maxRows, maxBytes := 40, 300
		if trial%8 == 0 {
			maxRows, maxBytes = 3000, 2200
		}
		region := int64(1 << 22)
		next := int64(pick(0, 4096))
		var passes []rowPass
		var touched []int64 // bases of the passes so far, for overlaps and trailing reads
		for step, steps := 0, pick(1, 4); step < steps; step++ {
			rows, rowBytes, scans := pick(1, maxRows), int64(pick(4, maxBytes)), pick(1, 9)
			if rng.Intn(3) == 0 {
				rowBytes = rowBytes / 4 * 4 // float32 rows
			}
			if rng.Intn(4) == 0 {
				rowBytes = (rowBytes/line + 1) * line // whole-line rows
			}
			base := next
			switch rng.Intn(6) {
			case 0:
				base = base / line * line // aligned
			case 1:
				base = -region + base // below zero, like the weight tile
			case 2:
				if len(touched) > 0 { // overlaps an earlier pass
					base = touched[rng.Intn(len(touched))] + int64(pick(0, 2))*line
				}
			}
			next += int64(rows)*rowBytes + int64(pick(0, 3))*line + int64(pick(0, 40))
			touched = append(touched, base)
			p := rowPass{base: base, rowBytes: rowBytes, rows: rows, scans: scans}
			if rng.Intn(5) == 0 { // a simulated read in between: later passes must be refused
				p.readAddr, p.readSize = base-int64(pick(0, 200)), int64(pick(1, 300))
			}
			passes = append(passes, p)
		}
		var trailing [][2]int64
		if trial%2 == 0 {
			// Later accesses see the same cache: re-read around the passes.
			for i := 0; i < 8; i++ {
				trailing = append(trailing, [2]int64{touched[rng.Intn(len(touched))] + int64(pick(-100, 4000)), int64(pick(1, 400))})
			}
		}
		a, r := checkReadRows(t, line, capacity, passes, trailing)
		accepted += a
		refused += r
	}
	if accepted < 200 || refused < 50 {
		t.Fatalf("the sequences took the closed form %d times and the refusal %d times; both must be exercised", accepted, refused)
	}
}

// readRowsProgram decodes a fuzzed program into checkReadRows' arguments: a
// line of 4–128 bytes, a cache of 1–600 lines, up to six passes of ten bytes
// each — row bytes (1–4096), rows (1–512), scans (1–9), a base within ±8 MB,
// then flags (aligned base, whole-line rows, overlapping the previous pass, a
// simulated read first) and their parameter — and trailing reads from the
// rest, three bytes each. A pass whose simulated stream exceeds 2^18 line
// touches is dropped to keep an execution short.
func readRowsProgram(lineLog uint8, capLines uint16, prog []byte) (line, capacity int64, passes []rowPass, trailing [][2]int64) {
	line, capacity = 4<<(lineLog%6), 1+int64(capLines%600)
	var bases []int64
	for len(prog) >= 10 && len(passes) < 6 {
		b := prog[:10]
		prog = prog[10:]
		p := rowPass{
			rowBytes: 1 + (int64(b[0])<<8|int64(b[1]))%4096,
			rows:     1 + (int(b[2])<<8|int(b[3]))%512,
			scans:    1 + int(b[4])%9,
			base:     (int64(b[5])<<16 | int64(b[6])<<8 | int64(b[7])) - 1<<23,
		}
		flags, param := b[8], int64(b[9])
		if flags&1 != 0 {
			p.base = p.base / line * line
		}
		if flags&2 != 0 {
			p.rowBytes = (p.rowBytes/line + 1) * line
		}
		if flags&4 != 0 && len(bases) > 0 {
			p.base = bases[len(bases)-1] + param%3*line
		}
		if flags&8 != 0 {
			p.readAddr, p.readSize = p.base-param, 1+2*param
		}
		if int64(p.rows)*int64(p.scans)*(p.rowBytes/line+2) > 1<<18 {
			continue
		}
		bases = append(bases, p.base)
		passes = append(passes, p)
	}
	for len(bases) > 0 && len(prog) >= 3 {
		addr := bases[int(prog[0])%len(bases)] + int64(int8(prog[1]))*16
		trailing = append(trailing, [2]int64{addr, 1 + 2*int64(prog[2])})
		prog = prog[3:]
	}
	return line, capacity, passes, trailing
}

// FuzzReadRowsVsSimulated: whatever the row size, row count, scans, base and
// cache size, ReadRows accounts exactly what the line-by-line Read loop
// counts and leaves the state it leaves — or refuses, having changed
// nothing. The committed corpus (testdata/fuzz) holds train-heavy's dense
// pass (544-wide rows, 68 whole lines, 512-line cache), train-light's
// 48-byte rows that straddle lines, a pass wider than the cache scanned
// again, a pass behind a simulated read (refused), and one overlapping the
// lines the previous pass still owes, below zero like the weight tile.
func FuzzReadRowsVsSimulated(f *testing.F) {
	f.Fuzz(func(t *testing.T, lineLog uint8, capLines uint16, prog []byte) {
		line, capacity, passes, trailing := readRowsProgram(lineLog, capLines, prog)
		checkReadRows(t, line, capacity, passes, trailing)
	})
}

// TestReadRowsAcrossLaunches: a recycled context owes nothing and is cold
// again, so the closed form applies afresh on every launch and repeats its
// counters (the property TestKernelRecycleColdCache holds Read to).
func TestReadRowsAcrossLaunches(t *testing.T) {
	d := NewDevice(DefaultConfig())
	buf := d.MustAlloc(1<<20, "data")
	launch := func(streamed bool) KernelStats {
		k := d.StartKernel("rows")
		sm := k.SM(3)
		if !streamed || !sm.ReadRows(buf.Addr(8), 52, 700, 3) {
			if streamed {
				t.Fatal("a cold context refused a streamed pass")
			}
			simulateRows(sm, buf.Addr(8), 52, 700, 3)
		}
		sm.Read(buf.Addr(0), 4096)
		return k.Finish()
	}
	want := launch(false)
	for i := 0; i < 3; i++ {
		if got := launch(true); got != want {
			t.Fatalf("launch %d: streamed %+v, simulated %+v", i, got, want)
		}
	}
}
