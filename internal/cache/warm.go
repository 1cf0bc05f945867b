package cache

import (
	"gsdram/internal/addrmap"
	"gsdram/internal/gsdram"
)

// WarmFill inserts (addr, pattern) exactly like Fill but without
// counting the fill in the statistics — the functional fast-forward of
// sampled simulation (DESIGN.md §5.7) warms tags without distorting the
// counters the measured windows difference. LRU state advances normally:
// warmed lines must age exactly like fetched ones. The warm fills run
// the counted fills' body with counting switched off rather than
// wrapping them in a counter save/restore: the fast-forward calls them
// once or more per instruction, so copying the counter block twice per
// call dominated warming cost.
func (c *Cache) WarmFill(a addrmap.Addr, p gsdram.Pattern, dirty bool) (evicted Line, hasEvict bool) {
	return c.fill(a, p, dirty, false)
}

// WarmLookup checks for (addr, pattern) updating LRU but not the hit or
// miss counters, for the same reason as WarmFill.
func (c *Cache) WarmLookup(a addrmap.Addr, p gsdram.Pattern, setDirty bool) bool {
	c.clock++
	if i := c.find(a, p); i >= 0 {
		c.stamps[i] = c.clock
		if setDirty {
			c.dirty[i] = true
		}
		return true
	}
	return false
}

// WarmFillNew inserts (addr, pattern) that the caller has just observed
// absent — a WarmLookup or WarmFill miss with no intervening fill — so
// the presence scan of WarmFill is skipped and victim selection starts
// immediately. Filling a line that is actually present would duplicate
// it; call sites must guarantee absence.
func (c *Cache) WarmFillNew(a addrmap.Addr, p gsdram.Pattern, dirty bool) (evicted Line, hasEvict bool) {
	return c.fillNew(a, p, dirty, false)
}

// WarmInvalidate removes (addr, pattern) without counting the
// invalidation.
func (c *Cache) WarmInvalidate(a addrmap.Addr, p gsdram.Pattern) (present, dirty bool) {
	if i := c.find(a, p); i >= 0 {
		dirty = c.dirty[i]
		c.clearLine(i)
		return true, dirty
	}
	return false, false
}
