package gpusim

import "math/bits"

// Kernel is one simulated GPU kernel launch. Obtain per-SM contexts with
// SM(i), record accesses from (at most) one goroutine per context, then call
// Finish to flush per-SM tallies into the device counters and retrieve the
// kernel's own stats.
type Kernel struct {
	dev      *Device
	name     string
	sms      []*SMContext
	finished bool
	st       KernelStats
}

// KernelStats summarizes one kernel launch.
type KernelStats struct {
	Name         string
	FLOPs        int64
	GlobalLoads  int64
	GlobalStores int64
	CacheHits    int64
	CacheBytes   int64
}

// StartKernel begins a kernel launch. Each SM starts with a cold cache,
// which matches the paper's per-kernel Nsight measurements. A launch is one
// pooled unit — the Kernel header and a whole set of NumSMs contexts — checked
// out of the device's recycle pool (kernels open at once hold disjoint units)
// and returned by Finish, so a warm launch allocates nothing. The Kernel and
// its SM(i) results must not be retained past Finish.
func (d *Device) StartKernel(name string) *Kernel {
	d.launches.Add(1)
	var k *Kernel
	d.smMu.Lock()
	if n := len(d.kFree); n > 0 {
		k, d.kFree[n-1] = d.kFree[n-1], nil
		d.kFree = d.kFree[:n-1]
	}
	d.smMu.Unlock()
	if k == nil {
		k = &Kernel{dev: d, sms: make([]*SMContext, d.cfg.NumSMs)}
		for i := range k.sms {
			k.sms[i] = newSMContext(d.cfg)
		}
	}
	k.name, k.finished, k.st = name, false, KernelStats{}
	// A pooled set is reset at checkout, so the counters of a finished
	// kernel stay readable until its contexts are handed out again.
	for _, sm := range k.sms {
		sm.reset()
	}
	return k
}

// NumSMs returns the number of per-kernel SM contexts.
func (k *Kernel) NumSMs() int { return len(k.sms) }

// SM returns the context of streaming multiprocessor i.
func (k *Kernel) SM(i int) *SMContext { return k.sms[i] }

// Finish aggregates all SM contexts into the device counters, returns the
// launch to the device recycle pool and returns the kernel's stats. A second
// Finish by the same holder returns the same stats and does nothing else —
// until the next StartKernel checks the unit out again, after which the
// handle is another launch's.
func (k *Kernel) Finish() KernelStats {
	if k.finished {
		return k.st
	}
	st := KernelStats{Name: k.name}
	for _, sm := range k.sms {
		st.FLOPs += sm.flops
		st.GlobalLoads += sm.loads
		st.GlobalStores += sm.stores
		st.CacheHits += sm.hits
	}
	st.CacheBytes = st.GlobalLoads * k.dev.cfg.CacheLineBytes
	d := k.dev
	d.flops.Add(st.FLOPs)
	d.globalLoads.Add(st.GlobalLoads)
	d.globalStores.Add(st.GlobalStores)
	d.cacheHits.Add(st.CacheHits)
	d.cacheBytes.Add(st.CacheBytes)
	k.st, k.finished = st, true
	d.smMu.Lock()
	d.kFree = append(d.kFree, k)
	d.smMu.Unlock()
	return st
}

// SMContext records the memory traffic of one streaming multiprocessor
// during one kernel. Not safe for concurrent use: confine each context to a
// single goroutine (the simulator's analogue of "one thread block at a time
// per SM slot").
type SMContext struct {
	cache    *lruCache
	lineMask int64
	lineSize int64
	flops    int64
	loads    int64
	stores   int64
	hits     int64

	// owed is the number of consecutive lines, ending at owedLast, that
	// ReadRows has counted but not yet touched in the cache: touching them
	// once in ascending order on top of the cache's contents gives the LRU
	// state the simulated stream would have left. settle pays it before the
	// next simulated touch; a launch that only streams never does.
	owed, owedLast int64

	// rowBytes is non-zero while the cache is keyed by row (RowUnit): every
	// key is the address of a row of rowLines whole lines, and with
	// rowPartial the cache holds one row more than fit whole.
	rowBytes, rowLines int64
	rowPartial         bool
}

func newSMContext(cfg Config) *SMContext {
	lines := int(cfg.CacheBytesPerSM / cfg.CacheLineBytes)
	if lines < 1 {
		lines = 1
	}
	return &SMContext{
		cache:    newLRUCache(lines),
		lineSize: cfg.CacheLineBytes,
		lineMask: ^(cfg.CacheLineBytes - 1),
	}
}

// reset clears the context for recycling into the next kernel launch: the
// counters drop to zero and the cache is emptied (cold per kernel), with
// its slots and buckets retained for reuse.
func (sm *SMContext) reset() {
	sm.flops, sm.loads, sm.stores, sm.hits = 0, 0, 0, 0
	sm.owed, sm.rowBytes = 0, 0
	sm.cache.reset()
}

// Read simulates a load of size bytes at addr: each touched cache line is
// either served from the SM cache (hit) or filled from global memory (one
// global load, lineSize bytes of cache traffic).
func (sm *SMContext) Read(addr, size int64) {
	if size <= 0 {
		return
	}
	if sm.rowBytes != 0 {
		if size == sm.rowBytes && addr&^sm.lineMask == 0 {
			sm.readRow(addr)
			return
		}
		sm.lineUnit()
	}
	if sm.owed != 0 {
		sm.settle()
	}
	first := addr & sm.lineMask
	last := (addr + size - 1) & sm.lineMask
	for line := first; line <= last; line += sm.lineSize {
		if sm.cache.touch(line) {
			sm.hits++
		} else {
			sm.loads++
		}
	}
}

// RowUnit lets the cache of a cold context probe once per row instead of
// once per line for as long as every Read is one whole row of rowBytes. It
// applies when a row is L ≥ 2 whole lines (rowBytes a multiple of the line
// size; row addresses are line-aligned because buffers are) and fits the
// cache of C lines, and is a no-op otherwise. The caller vouches that the
// rows it reads are pairwise identical or disjoint, which rows of device
// matrices of one width are.
//
// The law: reading a row touches its L lines in ascending order, so by
// last touch the lines are ordered by their row's last read and, within a
// row, by address. Line j of a row whose last read lies k distinct rows back
// therefore has kL + L − 1 distinct lines above it in the LRU stack whatever
// j is (its own row's later lines from that read, the k rows, its own row's
// earlier lines from this one): the row's lines hit together, iff
// (k+1)·L ≤ C. That is an LRU over rows with ⌊C/L⌋ entries. When L does not
// divide C the line cache still holds the last C mod L lines of one more
// row; re-reading that row misses on every line (each fill evicts the next
// line it was about to touch), so it counts as L loads, but the lines matter
// to whoever reads at line granularity afterwards. The row-keyed cache
// therefore keeps that row as the tail entry of a full cache, counted as a
// miss when touched, and a Read that is not such a row — another size, an
// unaligned address, a ReadRows pass — first rebuilds the line-granular
// state exactly (lineUnit) and proceeds line by line. Counters and every
// later access are those of the line-by-line simulation
// (TestRowUnitMatchesLines, FuzzRowUnitLRU).
func (sm *SMContext) RowUnit(rowBytes int64) {
	if sm.rowBytes != 0 {
		if rowBytes == sm.rowBytes {
			return
		}
		sm.lineUnit()
	}
	c := sm.cache
	lines, fit := rowBytes/sm.lineSize, int64(len(c.slots))
	if rowBytes%sm.lineSize != 0 || lines < 2 || lines > fit || c.used != 0 || sm.owed != 0 {
		return
	}
	sm.rowBytes, sm.rowLines, sm.rowPartial = rowBytes, lines, fit%lines != 0
	c.capacity = int(fit / lines)
	if sm.rowPartial {
		c.capacity++
	}
}

// readRow is Read of one whole row in the row unit.
func (sm *SMContext) readRow(row int64) {
	c := sm.cache
	partial := sm.rowPartial && int(c.used) == c.capacity && c.slots[c.tail].key == row
	if c.touch(row) && !partial {
		sm.hits += sm.rowLines
	} else {
		sm.loads += sm.rowLines
	}
}

// lineUnit leaves the row unit with the line-granular state the row-keyed
// cache stands for: the resident rows' lines re-touched from the least to
// the most recently read row, ascending within a row, which keeps the last
// C of them — the partial row's tail included.
func (sm *SMContext) lineUnit() {
	c := sm.cache
	rows := make([]int64, 0, c.used)
	for i := c.tail; i >= 0; i = c.slots[i].prev {
		rows = append(rows, c.slots[i].key)
	}
	rowBytes := sm.rowBytes
	sm.rowBytes = 0
	c.reset()
	for _, row := range rows {
		for line := row; line < row+rowBytes; line += sm.lineSize {
			c.touch(line)
		}
	}
}

// ReadRows accounts scans ascending passes over rows contiguous rows of
// rowBytes starting at base — the stream
//
//	for s := 0; s < scans; s++ {
//		for i := 0; i < rows; i++ {
//			sm.Read(base+int64(i)*rowBytes, rowBytes)
//		}
//	}
//
// — arithmetically, by the stack-distance property of a fully-associative
// LRU of C lines: an access hits iff fewer than C distinct lines were
// touched since the line's last touch. With T line touches and D distinct
// lines per pass (a row that starts in the line its predecessor ended in
// re-touches it at distance 0, which hits at any C ≥ 1), the first pass is
// D loads and T−D hits when none of the D lines is resident; a later pass
// re-touches each line at distance D−1, so it is all hits if D ≤ C and
// again D loads and T−D hits if D > C.
//
// It reports false, having changed nothing, unless it can prove that
// premise — the cache holds no line (cold since the launch began) and the
// run is disjoint from the lines it still owes — in which case the caller
// issues the stream through Read. On true the counters equal the simulated
// stream's and so does the LRU state every later access sees: the last
// min(C, D) lines of the run, ascending, on top of what was there, owed
// until a simulated touch needs them (settle).
func (sm *SMContext) ReadRows(base, rowBytes int64, rows, scans int) bool {
	if rows <= 0 || scans <= 0 || rowBytes <= 0 {
		return true // the stream is empty
	}
	if sm.rowBytes != 0 {
		sm.lineUnit()
	}
	first := base & sm.lineMask
	last := (base + int64(rows)*rowBytes - 1) & sm.lineMask
	owedFirst := sm.owedLast - (sm.owed-1)*sm.lineSize
	if sm.cache.used != 0 || (sm.owed != 0 && first <= sm.owedLast && last >= owedFirst) {
		return false
	}
	capacity := int64(sm.cache.capacity)
	distinct := (last-first)/sm.lineSize + 1
	if sm.owed != 0 && distinct < capacity {
		// The owed lines survive this run underneath it: make them resident.
		// (A run of C or more lines evicts them all, so they are dropped.)
		sm.settle()
	}
	sm.owed, sm.owedLast = distinct, last

	// Every row boundary that is not line-aligned is one re-touch.
	touches := distinct + int64(rows-1) - sm.alignedStarts(base, rowBytes, int64(rows-1))
	sm.loads += distinct
	sm.hits += touches - distinct
	if again := int64(scans - 1); distinct <= capacity {
		sm.hits += again * touches
	} else {
		sm.loads += again * distinct
		sm.hits += again * (touches - distinct)
	}
	return true
}

// alignedStarts counts the i in [1, n] for which base + i·rowBytes is
// line-aligned. The alignment of row starts repeats every lineSize rows, so
// it is n/lineSize whole periods plus the first n%lineSize rows of one.
func (sm *SMContext) alignedStarts(base, rowBytes, n int64) int64 {
	var period, rest int64
	for i := int64(1); i <= min(n, sm.lineSize); i++ {
		if (base+i*rowBytes)&^sm.lineMask == 0 {
			period++
			if i <= n%sm.lineSize {
				rest++
			}
		}
	}
	return n/sm.lineSize*period + rest
}

// settle touches the owed lines, leaving the cache as the streams ReadRows
// accounted would have: only the last capacity lines of the run can still
// be resident, in ascending order of last touch.
func (sm *SMContext) settle() {
	n := min(sm.owed, int64(sm.cache.capacity))
	for line := sm.owedLast - (n-1)*sm.lineSize; line <= sm.owedLast; line += sm.lineSize {
		sm.cache.touch(line)
	}
	sm.owed = 0
}

// Write simulates a store of size bytes at addr. The model is write-through
// without write-allocate: each touched line counts one global store and
// does not displace cache contents, matching how GPU L1s treat global
// stores by default.
func (sm *SMContext) Write(addr, size int64) {
	if size <= 0 {
		return
	}
	first := addr & sm.lineMask
	last := (addr + size - 1) & sm.lineMask
	sm.stores += (last-first)/sm.lineSize + 1
}

// AddFLOPs credits n floating point operations to this SM.
func (sm *SMContext) AddFLOPs(n int64) { sm.flops += n }

// lruCache is a fully-associative LRU cache over int64 keys — line addresses,
// or row addresses while its SMContext is in the row unit, which also lowers
// capacity below len(slots) until the next reset. Cache touches
// are the single hottest operation of the whole simulator (every modeled
// load funnels through here), so the implementation is index-based and
// pointer-free: slots live in one flat slice linked by int32 indices, and
// lookup goes through an open hash table of bucket heads chained through
// the slots. Nothing here allocates after construction and the garbage
// collector never traverses the structure.
//
// reset is a generation bump, not a bucket clear: a bucket word is the
// generation it was written in above the slot index of its chain head, a
// word of another generation reads as empty (generation 0 is never current,
// so the zero word is empty in all of them), and only when the generation
// wraps (every 2^32 / 2^idxBits resets — 8 M at 512 lines, whose indices
// take 9 bits) are the buckets really cleared. The stamp shares the 4-byte
// word the bare index used to have to itself; widening the word to 8 bytes
// was measured at +6.6…+17 % of live_heap_mb (every device retains NumSMs
// caches), which is why it is packed.
type lruCache struct {
	capacity int
	slots    []lruSlot // slot arena, len == capacity
	buckets  []uint32  // hash-chain heads: generation tag | slot index; len is a power of two
	mask     uint32
	idxMask  uint32 // low bits of a bucket word holding the slot index
	tag      uint32 // current generation (≥ 1), already shifted above idxMask
	used     int32  // slots in use; slots [0,used) are resident lines
	head     int32  // most recently used, -1 when empty
	tail     int32  // least recently used, -1 when empty
}

// lruSlot is one resident cache line: doubly linked in LRU order via
// prev/next and singly linked in its hash bucket via hnext.
type lruSlot struct {
	key        int64
	prev, next int32
	hnext      int32
}

func newLRUCache(capacity int) *lruCache {
	nb := 1
	for nb < 2*capacity {
		nb <<= 1
	}
	c := &lruCache{
		capacity: capacity,
		slots:    make([]lruSlot, capacity),
		buckets:  make([]uint32, nb),
		mask:     uint32(nb - 1),
		idxMask:  1<<bits.Len(uint(capacity-1)) - 1,
		head:     -1,
		tail:     -1,
	}
	c.tag = c.idxMask + 1 // generation 1 over zeroed buckets: all empty
	return c
}

// bucket hashes a line address (always line-size aligned, so the low bits
// carry no entropy) onto a bucket index via a Fibonacci multiply.
func (c *lruCache) bucket(line int64) uint32 {
	return uint32((uint64(line)*0x9e3779b97f4a7c15)>>33) & c.mask
}

// chain returns the first slot of bucket b's hash chain, -1 when the bucket
// is empty or was last written in an earlier generation.
func (c *lruCache) chain(b uint32) int32 {
	x := c.buckets[b] ^ c.tag
	if x > c.idxMask {
		return -1
	}
	return int32(x)
}

// touch marks line as most recently used, inserting (and evicting the LRU
// line if full) when absent. It returns true on hit.
func (c *lruCache) touch(line int64) bool {
	b := c.bucket(line)
	first := c.chain(b)
	for i := first; i >= 0; i = c.slots[i].hnext {
		if c.slots[i].key == line {
			if c.head != i {
				c.listRemove(i)
				c.pushFront(i)
			}
			return true
		}
	}
	var idx int32
	if c.used >= int32(c.capacity) {
		// Reuse the evicted LRU slot for the incoming line: unlink it from
		// the recency list and from its hash chain.
		idx = c.tail
		c.listRemove(idx)
		eb, next := c.bucket(c.slots[idx].key), c.slots[idx].hnext
		// A resident line's bucket was written in this generation.
		if i := int32(c.buckets[eb] & c.idxMask); i != idx {
			for c.slots[i].hnext != idx {
				i = c.slots[i].hnext
			}
			c.slots[i].hnext = next
		} else if next >= 0 {
			c.buckets[eb] = c.tag | uint32(next)
		} else {
			c.buckets[eb] = 0
		}
		if eb == b {
			first = c.chain(b)
		}
	} else {
		idx = c.used
		c.used++
	}
	s := &c.slots[idx]
	s.key = line
	s.hnext = first
	c.buckets[b] = c.tag | uint32(idx)
	c.pushFront(idx)
	return false
}

// reset empties the cache in O(1), ready for the next (cold-cache) kernel
// launch: the next generation's tag makes every bucket word stale. When the
// tag wraps the buckets are zeroed and the count restarts at generation 1,
// so no word of a past generation can ever match a current one.
func (c *lruCache) reset() {
	c.tag += c.idxMask + 1
	if c.tag == 0 {
		clear(c.buckets)
		c.tag = c.idxMask + 1
	}
	c.used, c.head, c.tail = 0, -1, -1
	c.capacity = len(c.slots)
}

func (c *lruCache) pushFront(idx int32) {
	s := &c.slots[idx]
	s.prev = -1
	s.next = c.head
	if c.head >= 0 {
		c.slots[c.head].prev = idx
	}
	c.head = idx
	if c.tail < 0 {
		c.tail = idx
	}
}

func (c *lruCache) listRemove(idx int32) {
	s := &c.slots[idx]
	if s.prev >= 0 {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next >= 0 {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
	s.prev, s.next = -1, -1
}

// len reports the number of resident lines (for tests).
func (c *lruCache) len() int { return int(c.used) }
