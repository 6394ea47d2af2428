// Package arch implements the performance model of the simulated core: an
// interval-style out-of-order CPU model (base CPI plus miss-event
// penalties, the modelling approach used by Sniper) on top of structural
// simulations of the cache hierarchy, TLBs and branch predictor.
//
// The structural components are exercised with sampled synthetic access
// streams derived from the active workload phase; the measured miss and
// misprediction rates feed the interval equations, which produce the
// per-timestep performance-counter telemetry that Boreas consumes.
package arch

import "fmt"

// CacheConfig sizes a set-associative cache.
type CacheConfig struct {
	Sets     int // number of sets (power of two)
	Ways     int
	LineSize int // bytes (power of two)
}

// Size returns the cache capacity in bytes.
func (c CacheConfig) Size() int { return c.Sets * c.Ways * c.LineSize }

// Validate reports sizing errors.
func (c CacheConfig) Validate() error {
	if c.Sets <= 0 || c.Ways <= 0 || c.LineSize <= 0 {
		return fmt.Errorf("arch: non-positive cache geometry %+v", c)
	}
	if c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("arch: sets must be a power of two, got %d", c.Sets)
	}
	if c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("arch: line size must be a power of two, got %d", c.LineSize)
	}
	return nil
}

// Cache is a set-associative cache with true-LRU replacement. Each set
// keeps its tags in recency order, most recent first, so a hit moves its
// line to the front and a miss drops the last (least recent or invalid)
// line; hit and miss therefore depend only on the access sequence. It
// models hit/miss behaviour only (no data), which is all the interval
// model needs. The zero value is not usable; construct with NewCache.
type Cache struct {
	cfg       CacheConfig
	setShift  uint
	setMask   uint64
	tags      []uint64 // sets*ways, each set most recent first; tag = line+1, 0 = invalid
	hits      uint64
	misses    uint64
	writeHits uint64
	writeMiss uint64
}

// NewCache builds an empty cache.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	shift := uint(0)
	for 1<<shift < cfg.LineSize {
		shift++
	}
	c := &Cache{
		cfg:      cfg,
		setShift: shift,
		setMask:  uint64(cfg.Sets - 1),
		tags:     make([]uint64, cfg.Sets*cfg.Ways),
	}
	return c, nil
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// touch makes the line containing addr the most recent in its set,
// allocating over the last slot on a miss, and reports whether it hit.
func (c *Cache) touch(addr uint64) bool {
	line := addr >> c.setShift
	tag := line + 1
	base := int(line&c.setMask) * c.cfg.Ways
	set := c.tags[base : base+c.cfg.Ways]
	if set[0] == tag {
		return true
	}
	// Shift each slot down while searching; the slot the tag came from
	// (or the last slot, on a miss) is the one overwritten.
	prev := set[0]
	for j := 1; j < len(set); j++ {
		cur := set[j]
		set[j] = prev
		if cur == tag {
			set[0] = tag
			return true
		}
		prev = cur
	}
	set[0] = tag
	return false
}

// Access looks up addr, allocating on miss, and reports whether it hit.
// write only affects the write-specific statistics.
func (c *Cache) Access(addr uint64, write bool) bool {
	if c.touch(addr) {
		c.countHit(write)
		return true
	}
	c.misses++
	if write {
		c.writeMiss++
	}
	return false
}

// countHit records a hit without a lookup, for an access the caller knows
// hits the most recent line of its set, which such a hit leaves in place.
func (c *Cache) countHit(write bool) {
	c.hits++
	if write {
		c.writeHits++
	}
}

// Install inserts the line containing addr without touching statistics;
// used by the prefetcher so prefetch fills do not count as demand misses.
func (c *Cache) Install(addr uint64) { c.touch(addr) }

// Stats returns cumulative (accesses, misses).
func (c *Cache) Stats() (accesses, misses uint64) {
	return c.hits + c.misses, c.misses
}

// WriteStats returns cumulative write (accesses, misses).
func (c *Cache) WriteStats() (accesses, misses uint64) {
	return c.writeHits + c.writeMiss, c.writeMiss
}

// MissRate returns the lifetime miss ratio (0 if never accessed).
func (c *Cache) MissRate() float64 {
	a, m := c.Stats()
	if a == 0 {
		return 0
	}
	return float64(m) / float64(a)
}

// ResetStats clears the counters without flushing cache contents.
func (c *Cache) ResetStats() {
	c.hits, c.misses, c.writeHits, c.writeMiss = 0, 0, 0, 0
}

// Flush invalidates all lines and clears statistics.
func (c *Cache) Flush() {
	clear(c.tags)
	c.ResetStats()
}
