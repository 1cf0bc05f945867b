package memsys

import (
	"fmt"
	"math/bits"

	"gsdram/internal/addrmap"
	"gsdram/internal/gsdram"
)

// lineTable is an open-addressing hash table keyed by a packed (line,
// pattern) key (System.lineKey). System keeps one for the outstanding
// misses and one for the prefetch marks, which every L2 hit, miss and
// eviction consults, so it stays off the runtime's map hashing: a
// Fibonacci hash, linear probing, and backward-shift deletion, which
// leaves no tombstones. The table doubles when half full and never
// shrinks, so a steady-state simulation neither hashes through the
// runtime nor allocates. Nothing iterates over it, so its slot order
// never reaches a result. The zero value is an empty table.
type lineTable[V any] struct {
	keys  []uint64 // 0 marks an empty slot; packed keys are never 0
	vals  []V
	n     int
	shift uint // 64 - log2(len(keys))
}

// minTableSlots is the size of a table's first allocation.
const minTableSlots = 16

func (t *lineTable[V]) len() int { return t.n }

// home is k's preferred slot: the top bits of its Fibonacci hash.
func (t *lineTable[V]) home(k uint64) uint64 {
	return k * 0x9e3779b97f4a7c15 >> t.shift
}

// get returns k's value and whether k is present.
func (t *lineTable[V]) get(k uint64) (V, bool) {
	if t.n != 0 {
		mask := uint64(len(t.keys) - 1)
		for i := t.home(k); t.keys[i] != 0; i = (i + 1) & mask {
			if t.keys[i] == k {
				return t.vals[i], true
			}
		}
	}
	var zero V
	return zero, false
}

// put sets k's value, inserting k if it is absent.
func (t *lineTable[V]) put(k uint64, v V) {
	if 2*(t.n+1) > len(t.keys) {
		t.grow()
	}
	mask := uint64(len(t.keys) - 1)
	i := t.home(k)
	for ; t.keys[i] != 0; i = (i + 1) & mask {
		if t.keys[i] == k {
			t.vals[i] = v
			return
		}
	}
	t.keys[i], t.vals[i] = k, v
	t.n++
}

// del removes k and returns its value and whether it was present.
func (t *lineTable[V]) del(k uint64) (V, bool) {
	var zero V
	if t.n == 0 {
		return zero, false
	}
	mask := uint64(len(t.keys) - 1)
	i := t.home(k)
	for t.keys[i] != k {
		if t.keys[i] == 0 {
			return zero, false
		}
		i = (i + 1) & mask
	}
	v := t.vals[i]
	t.n--
	// Backward shift: walk the rest of the probe run and move into the
	// hole at i every key whose home does not lie between the hole and
	// its slot, so each key stays reachable from its home.
	for j := (i + 1) & mask; t.keys[j] != 0; j = (j + 1) & mask {
		if (j-t.home(t.keys[j]))&mask >= (j-i)&mask {
			t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
			i = j
		}
	}
	t.keys[i], t.vals[i] = 0, zero
	return v, true
}

// grow doubles the table (or makes its first allocation) and re-inserts
// every key.
func (t *lineTable[V]) grow() {
	keys, vals := t.keys, t.vals
	size := 2 * len(keys)
	if size < minTableSlots {
		size = minTableSlots
	}
	t.keys, t.vals, t.n = make([]uint64, size), make([]V, size), 0
	t.shift = uint(64 - bits.Len(uint(size-1)))
	for i, k := range keys {
		if k != 0 {
			t.put(k, vals[i])
		}
	}
}

// lineKey packs (line, pattern) into the key of the MSHR and prefetch-mark
// tables the way internal/cache packs its tags: the line number above 16
// pattern bits (gsdram.Params caps PatternBits at 16) and a set low bit,
// so no key is 0. The line number counts units of the smaller cache
// line, which every line address the system forms is aligned to. Like
// the cache's tag packing, it is exact below 2^47 line numbers; lineKey
// panics beyond, where cache.Fill and the controller panic too.
func (s *System) lineKey(line addrmap.Addr, p gsdram.Pattern) uint64 {
	n := uint64(line) >> s.keyShift
	if n >= 1<<47 {
		panic(fmt.Sprintf("memsys: line %#x exceeds the packed-key range", uint64(line)))
	}
	return n<<17 | uint64(p)<<1 | 1
}
