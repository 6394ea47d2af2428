package arch

import (
	"testing"
	"testing/quick"

	"github.com/hotgauge/boreas/internal/rng"
)

func TestCacheConfigValidate(t *testing.T) {
	good := CacheConfig{Sets: 64, Ways: 8, LineSize: 64}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []CacheConfig{
		{Sets: 0, Ways: 8, LineSize: 64},
		{Sets: 63, Ways: 8, LineSize: 64},
		{Sets: 64, Ways: 0, LineSize: 64},
		{Sets: 64, Ways: 8, LineSize: 48},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", bad)
		}
	}
}

func TestCacheSize(t *testing.T) {
	c := CacheConfig{Sets: 64, Ways: 8, LineSize: 64}
	if c.Size() != 32*1024 {
		t.Fatalf("Size = %d, want 32768", c.Size())
	}
}

func TestCacheColdMissThenHit(t *testing.T) {
	c, err := NewCache(CacheConfig{Sets: 4, Ways: 2, LineSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if c.Access(0x1000, false) {
		t.Fatal("cold access should miss")
	}
	if !c.Access(0x1000, false) {
		t.Fatal("second access should hit")
	}
	if !c.Access(0x1020, false) {
		t.Fatal("same-line access should hit")
	}
	a, m := c.Stats()
	if a != 3 || m != 1 {
		t.Fatalf("stats = %d/%d, want 3/1", a, m)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 1 set, 2 ways: A, B, touch A, insert C -> B evicted, A retained.
	c, _ := NewCache(CacheConfig{Sets: 1, Ways: 2, LineSize: 64})
	c.Access(0x000, false) // A miss
	c.Access(0x100, false) // B miss
	c.Access(0x000, false) // A hit, B becomes LRU
	c.Access(0x200, false) // C miss, evicts B
	if !c.Access(0x000, false) {
		t.Fatal("A should have been retained")
	}
	if c.Access(0x100, false) {
		t.Fatal("B should have been evicted")
	}
}

func TestCacheWorkingSetFitsNoSteadyMisses(t *testing.T) {
	c, _ := NewCache(CacheConfig{Sets: 64, Ways: 8, LineSize: 64}) // 32 KB
	r := rng.New(1)
	// Warm a 16 KB working set, then measure.
	for i := 0; i < 50000; i++ {
		c.Access(uint64(r.Intn(16*1024)), false)
	}
	c.ResetStats()
	for i := 0; i < 50000; i++ {
		c.Access(uint64(r.Intn(16*1024)), false)
	}
	if mr := c.MissRate(); mr > 0.001 {
		t.Fatalf("fitting working set should not miss, rate %v", mr)
	}
}

func TestCacheThrashingWorkingSetMisses(t *testing.T) {
	c, _ := NewCache(CacheConfig{Sets: 64, Ways: 8, LineSize: 64}) // 32 KB
	r := rng.New(2)
	for i := 0; i < 50000; i++ {
		c.Access(uint64(r.Intn(4*1024*1024)), false)
	}
	c.ResetStats()
	for i := 0; i < 50000; i++ {
		c.Access(uint64(r.Intn(4*1024*1024)), false)
	}
	if mr := c.MissRate(); mr < 0.9 {
		t.Fatalf("4 MB random stream on 32 KB cache should thrash, rate %v", mr)
	}
}

func TestCacheSequentialStreamMissRate(t *testing.T) {
	// Sequential accesses at 8-byte stride touch each 64 B line 8 times:
	// steady-state miss rate ~1/8 if the stream exceeds capacity.
	c, _ := NewCache(CacheConfig{Sets: 64, Ways: 8, LineSize: 64})
	addr := uint64(0)
	for i := 0; i < 100000; i++ {
		c.Access(addr%(1<<30), false)
		addr += 8
	}
	c.ResetStats()
	for i := 0; i < 100000; i++ {
		c.Access(addr%(1<<30), false)
		addr += 8
	}
	mr := c.MissRate()
	if mr < 0.1 || mr > 0.15 {
		t.Fatalf("sequential stride-8 miss rate %v, want ~0.125", mr)
	}
}

func TestCacheWriteStats(t *testing.T) {
	c, _ := NewCache(CacheConfig{Sets: 4, Ways: 2, LineSize: 64})
	c.Access(0x0, true)
	c.Access(0x0, true)
	c.Access(0x0, false)
	wa, wm := c.WriteStats()
	if wa != 2 || wm != 1 {
		t.Fatalf("write stats %d/%d, want 2/1", wa, wm)
	}
}

func TestCacheFlush(t *testing.T) {
	c, _ := NewCache(CacheConfig{Sets: 4, Ways: 2, LineSize: 64})
	c.Access(0x0, false)
	c.Flush()
	if a, m := c.Stats(); a != 0 || m != 0 {
		t.Fatal("flush should clear stats")
	}
	if c.Access(0x0, false) {
		t.Fatal("flush should invalidate lines")
	}
}

func TestCacheHitRateMonotoneInCapacityProperty(t *testing.T) {
	// Property: for the same access stream, a bigger cache (same sets,
	// more ways) never has more misses (LRU inclusion property).
	f := func(seed uint64) bool {
		small, _ := NewCache(CacheConfig{Sets: 16, Ways: 2, LineSize: 64})
		big, _ := NewCache(CacheConfig{Sets: 16, Ways: 8, LineSize: 64})
		r := rng.New(seed)
		for i := 0; i < 3000; i++ {
			addr := uint64(r.Intn(64 * 1024))
			small.Access(addr, false)
			big.Access(addr, false)
		}
		_, ms := small.Stats()
		_, mb := big.Stats()
		return mb <= ms
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// stampCache is the timestamp-LRU cache that Cache replaced, kept verbatim
// as the reference for TestCacheMatchesStampLRU and FuzzCacheMatchesStampLRU:
// every way carries the clock value of its last touch, and a miss refills
// the way with the smallest stamp (invalid ways carry 0, lowest index
// first).
type stampCache struct {
	cfg       CacheConfig
	setShift  uint
	setMask   uint64
	tags      []uint64 // sets*ways, valid bit folded into tag via +1 offset
	stamps    []uint64 // LRU timestamps
	clock     uint64
	hits      uint64
	misses    uint64
	writeHits uint64
	writeMiss uint64
}

func newStampCache(cfg CacheConfig) (*stampCache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	shift := uint(0)
	for 1<<shift < cfg.LineSize {
		shift++
	}
	c := &stampCache{
		cfg:      cfg,
		setShift: shift,
		setMask:  uint64(cfg.Sets - 1),
		tags:     make([]uint64, cfg.Sets*cfg.Ways),
		stamps:   make([]uint64, cfg.Sets*cfg.Ways),
	}
	return c, nil
}

func (c *stampCache) Access(addr uint64, write bool) bool {
	line := addr >> c.setShift
	set := int(line & c.setMask)
	tag := line + 1 // +1 so tag 0 means invalid
	base := set * c.cfg.Ways
	c.clock++

	victim := base
	oldest := c.stamps[base]
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.tags[i] == tag {
			c.stamps[i] = c.clock
			c.hits++
			if write {
				c.writeHits++
			}
			return true
		}
		if c.stamps[i] < oldest {
			oldest = c.stamps[i]
			victim = i
		}
	}
	c.tags[victim] = tag
	c.stamps[victim] = c.clock
	c.misses++
	if write {
		c.writeMiss++
	}
	return false
}

func (c *stampCache) Install(addr uint64) {
	line := addr >> c.setShift
	set := int(line & c.setMask)
	tag := line + 1
	base := set * c.cfg.Ways
	c.clock++
	victim := base
	oldest := c.stamps[base]
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.tags[i] == tag {
			c.stamps[i] = c.clock
			return
		}
		if c.stamps[i] < oldest {
			oldest = c.stamps[i]
			victim = i
		}
	}
	c.tags[victim] = tag
	c.stamps[victim] = c.clock
}

func (c *stampCache) Stats() (accesses, misses uint64) {
	return c.hits + c.misses, c.misses
}

func (c *stampCache) WriteStats() (accesses, misses uint64) {
	return c.writeHits + c.writeMiss, c.writeMiss
}

func (c *stampCache) ResetStats() {
	c.hits, c.misses, c.writeHits, c.writeMiss = 0, 0, 0, 0
}

func (c *stampCache) Flush() {
	for i := range c.tags {
		c.tags[i] = 0
		c.stamps[i] = 0
	}
	c.clock = 0
	c.ResetStats()
}

// Cache operations replayed against both implementations.
const (
	opRead = iota
	opWrite
	opInstall
	opResetStats
	opFlush
	numCacheOps
)

type cacheOp struct {
	kind int
	addr uint64
}

// checkMatchesStamp replays ops on a Cache and a stampCache of geometry
// cfg and fails at the first return value or statistic that differs.
func checkMatchesStamp(t *testing.T, cfg CacheConfig, ops []cacheOp) {
	t.Helper()
	got, err := NewCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newStampCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		switch op.kind {
		case opRead, opWrite:
			write := op.kind == opWrite
			if g, w := got.Access(op.addr, write), want.Access(op.addr, write); g != w {
				t.Fatalf("%+v op %d: Access(%#x, %v) = %v, stamp LRU %v", cfg, i, op.addr, write, g, w)
			}
		case opInstall:
			got.Install(op.addr)
			want.Install(op.addr)
		case opResetStats:
			got.ResetStats()
			want.ResetStats()
		case opFlush:
			got.Flush()
			want.Flush()
		}
		ga, gm := got.Stats()
		wa, wm := want.Stats()
		gwa, gwm := got.WriteStats()
		wwa, wwm := want.WriteStats()
		if ga != wa || gm != wm || gwa != wwa || gwm != wwm {
			t.Fatalf("%+v op %d (%+v): Stats %d/%d WriteStats %d/%d, stamp LRU %d/%d and %d/%d",
				cfg, i, op, ga, gm, gwa, gwm, wa, wm, wwa, wwm)
		}
	}
}

// mixedOps draws n operations whose addresses mix sequential runs with
// uniform draws over a working set of ws bytes. Flushes and stat resets
// are rare, so the sets fill and evict between them.
func mixedOps(r *rng.Source, n int, ws uint64) []cacheOp {
	ops := make([]cacheOp, n)
	var cursor uint64
	for i := range ops {
		if r.Float64() < 0.5 {
			cursor = (cursor + 8) % ws
		} else {
			cursor = r.Uint64() % ws
		}
		var kind int
		switch u := r.Float64(); {
		case u < 0.001:
			kind = opFlush
		case u < 0.003:
			kind = opResetStats
		case u < 0.2:
			kind = opInstall
		case u < 0.45:
			kind = opWrite
		default:
			kind = opRead
		}
		ops[i] = cacheOp{kind: kind, addr: cursor}
	}
	return ops
}

func TestCacheMatchesStampLRU(t *testing.T) {
	r := rng.New(7)
	for ways := 1; ways <= 16; ways++ {
		for sets := 1; sets <= 1024; sets *= 2 {
			for _, line := range []int{64, 4096} {
				cfg := CacheConfig{Sets: sets, Ways: ways, LineSize: line}
				// Working sets from a quarter of the capacity to four
				// times it: mostly hits through to mostly misses.
				for _, scale := range []uint64{1, 4, 16} {
					ws := uint64(cfg.Size()) * scale / 4
					checkMatchesStamp(t, cfg, mixedOps(r, 3000, ws))
				}
			}
		}
	}
}

// FuzzCacheMatchesStampLRU decodes a geometry and an operation list from
// the input and replays it on Cache and the stamp-LRU reference. Each
// operation takes three bytes: the kind (mod 16: 0-4 as the op constants,
// 5-9 a read, 10-15 a write; it doubles as the offset within the line),
// then a 16-bit line number, low byte first.
func FuzzCacheMatchesStampLRU(f *testing.F) {
	f.Add(uint8(2), uint8(0), false, []byte{0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0})
	f.Add(uint8(8), uint8(6), false, []byte{0, 1, 0, 2, 65, 0, 1, 1, 0, 4, 0, 0, 0, 1, 0})
	f.Add(uint8(16), uint8(10), true, []byte{2, 9, 9, 0, 9, 9, 3, 0, 0, 1, 10, 9, 0, 9, 9})
	// Mixed streams like TestCacheMatchesStampLRU's, encoded as above.
	r := rng.New(11)
	for i := 0; i < 8; i++ {
		ways, setsLog, pageLines := uint8(r.Intn(16)), uint8(r.Intn(11)), r.Intn(2) == 1
		lineSize := uint64(64)
		if pageLines {
			lineSize = 4096
		}
		capacity := uint64(1+ways) << setsLog * lineSize
		var data []byte
		for _, op := range mixedOps(r, 400, 2*capacity) {
			kind := byte(op.kind)
			switch op.kind {
			case opRead:
				kind = 5
			case opWrite:
				kind = 10
			}
			line := op.addr / lineSize
			data = append(data, kind, byte(line), byte(line>>8))
		}
		f.Add(ways, setsLog, pageLines, data)
	}
	f.Fuzz(func(t *testing.T, ways, setsLog uint8, pageLines bool, data []byte) {
		cfg := CacheConfig{Sets: 1 << (setsLog % 11), Ways: 1 + int(ways%16), LineSize: 64}
		if pageLines {
			cfg.LineSize = 4096
		}
		ops := make([]cacheOp, 0, len(data)/3)
		for i := 0; i+2 < len(data); i += 3 {
			kind := int(data[i]) % 16
			switch {
			case kind >= numCacheOps && kind < 10:
				kind = opRead
			case kind >= 10:
				kind = opWrite
			}
			line := uint64(data[i+1]) | uint64(data[i+2])<<8
			ops = append(ops, cacheOp{kind: kind, addr: line*uint64(cfg.LineSize) + uint64(data[i])})
		}
		checkMatchesStamp(t, cfg, ops)
	})
}
