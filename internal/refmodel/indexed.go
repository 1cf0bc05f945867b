package refmodel

import (
	"fmt"

	"gsdram/internal/addrmap"
	"gsdram/internal/gsdram"
)

// This file is the golden model of the indexed access path
// (gatherv/scatterv). Where the simulator coalesces the index vector
// into per-bank/per-row DRAM bursts (internal/memctrl) before touching
// memory, the model walks the vector literally, one flat-memory word per
// element — no coalescing, no burst decomposition — so a grouping or
// translation bug on the simulator side surfaces as a value difference.
//
// Indexed operations bypass the caches: the data moves directly between
// the core and DRAM. The §4.1 coherence extension therefore reconciles
// the cached copies first. For every element the at-most-two resident
// lines that can hold its word — the element's own default-pattern line,
// and on a shuffled page the alternate-pattern gathered line covering it
// — are written back when dirty (a gather must see stored data) and, for
// a scatter, invalidated (the cached copy becomes stale). The walk runs
// element by element in vector order, caches L1-first then L2, exactly
// the order internal/memsys.AccessV uses, so cache state stays diffable.

// checkIndexed validates one element address.
func (m *Model) checkIndexed(a addrmap.Addr) error {
	if uint64(a) >= m.cfg.Spec.Capacity() {
		return fmt.Errorf("refmodel: indexed element %#x out of range", uint64(a))
	}
	return nil
}

// altCovering returns the alternate-pattern line whose gather covers the
// word at a, found by literal search: every issued column of the
// pattern-aligned column group is gathered (through the network's
// truth table) and checked for membership — the inverse-free
// counterpart of the simulator's closed-form gatherLine.
func (m *Model) altCovering(a addrmap.Addr, alt gsdram.Pattern) (addrmap.Addr, bool) {
	l := m.locate(a)
	wa := a &^ 7
	group := 1 << m.pbits
	base := l.col - l.col%group
	for c := base; c < base+group && c < m.cfg.Spec.Cols; c++ {
		cl := l
		cl.col, cl.word = c, 0
		la := m.compose(cl)
		m.gather(la, alt, m.gAddrs, m.gLogical)
		for _, x := range m.gAddrs {
			if x == wa {
				return la, true
			}
		}
	}
	return 0, false
}

// reconcileElem runs the coherence walk for one element: flush (and for
// writes drop) the cached lines that can hold its word.
func (m *Model) reconcileElem(a addrmap.Addr, write bool) {
	m.reconcileLine(m.lineOf(a), 0, write)
	pg := m.page(a)
	if pg.Shuffled && pg.Alt != 0 && int(pg.Alt) < 1<<m.pbits {
		if la, ok := m.altCovering(a, pg.Alt); ok {
			m.reconcileLine(la, pg.Alt, write)
		}
	}
}

// reconcileLine applies the per-line rule across the hierarchy.
func (m *Model) reconcileLine(la addrmap.Addr, p gsdram.Pattern, write bool) {
	for i, c := range m.caches {
		e := c.probe(la, p)
		if e == nil {
			continue
		}
		if e.dirty {
			m.writebackEntry(e, i < len(m.l1))
			e.dirty = false
		}
		if write {
			c.invalidate(la, p)
		}
	}
}

// GatherV reads the words at the given (word-aligned) addresses into
// dst: the golden gatherv. dst[i] receives the word at addrs[i];
// duplicates and arbitrary order are allowed.
func (m *Model) GatherV(addrs []addrmap.Addr, dst []uint64) error {
	if len(dst) < len(addrs) {
		return fmt.Errorf("refmodel: gatherv dst has %d words, want >= %d", len(dst), len(addrs))
	}
	for _, a := range addrs {
		if err := m.checkIndexed(a); err != nil {
			return err
		}
	}
	for _, a := range addrs {
		m.reconcileElem(a, false)
	}
	for i, a := range addrs {
		dst[i] = m.word(a)
	}
	return nil
}

// ScatterV writes vals[i] to addrs[i]: the golden scatterv. Duplicate
// addresses apply in vector order (last write wins).
func (m *Model) ScatterV(addrs []addrmap.Addr, vals []uint64) error {
	if len(vals) < len(addrs) {
		return fmt.Errorf("refmodel: scatterv has %d values, want >= %d", len(vals), len(addrs))
	}
	for _, a := range addrs {
		if err := m.checkIndexed(a); err != nil {
			return err
		}
	}
	for _, a := range addrs {
		m.reconcileElem(a, true)
	}
	for i, a := range addrs {
		m.setWord(a, vals[i])
	}
	return nil
}
