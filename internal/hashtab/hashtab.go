// Package hashtab provides Table, the simulator's one open-addressing
// hash table. It serves the per-access lookups that must stay off the
// runtime's map hashing: memsys's outstanding misses, which every L2
// miss and prefetch candidate consults; gsdram.Module's clone
// overlay, which every functional word access of a cloned machine
// consults; and imdb's shadow overlay, which every fast-forwarded field
// access of a sampled run consults.
package hashtab

import (
	"math/bits"
	"slices"
)

// Table maps non-zero uint64 keys to values of type V: a Fibonacci hash,
// linear probing, and backward-shift deletion, which leaves no
// tombstones. The table doubles when half full and never shrinks, so
// once it has grown to its working size it neither hashes through the
// runtime nor allocates. Range visits entries in slot order, which
// depends on the insertion history, so a caller whose output depends on
// the order sorts what it yields. The zero value is an empty table.
type Table[V any] struct {
	keys  []uint64 // 0 marks an empty slot; keys are never 0
	vals  []V
	n     int
	shift uint // 64 - log2(len(keys))
}

// minSlots is the size of a table's first allocation.
const minSlots = 16

// Len returns the number of entries.
func (t *Table[V]) Len() int { return t.n }

// home is k's preferred slot: the top bits of its Fibonacci hash.
func (t *Table[V]) home(k uint64) uint64 {
	return k * 0x9e3779b97f4a7c15 >> t.shift
}

// Get returns k's value and whether k is present.
func (t *Table[V]) Get(k uint64) (V, bool) {
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

// Put sets k's value, inserting k if it is absent. k must not be 0.
func (t *Table[V]) Put(k uint64, v V) {
	if k == 0 {
		panic("hashtab: key 0 is reserved for empty slots")
	}
	if 2*(t.n+1) > len(t.keys) {
		t.resize(max(2*len(t.keys), minSlots))
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

// Del removes k and returns its value and whether it was present.
func (t *Table[V]) Del(k uint64) (V, bool) {
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

// Reserve grows the table so that it holds n entries without growing
// again, in one allocation instead of a doubling chain.
func (t *Table[V]) Reserve(n int) {
	size := minSlots
	for size < 2*n {
		size *= 2
	}
	if size > len(t.keys) {
		t.resize(size)
	}
}

// resize moves every entry into a table of size slots, a power of two.
func (t *Table[V]) resize(size int) {
	keys, vals := t.keys, t.vals
	t.keys, t.vals, t.n = make([]uint64, size), make([]V, size), 0
	t.shift = uint(64 - bits.Len(uint(size-1)))
	for i, k := range keys {
		if k != 0 {
			t.Put(k, vals[i])
		}
	}
}

// Clone returns an independent copy of the table. An empty table clones
// to the zero value, whatever its capacity.
func (t *Table[V]) Clone() Table[V] {
	if t.n == 0 {
		return Table[V]{}
	}
	c := *t
	c.keys, c.vals = slices.Clone(t.keys), slices.Clone(t.vals)
	return c
}

// Range calls fn for every entry, in slot order.
func (t *Table[V]) Range(fn func(k uint64, v V)) {
	for i, k := range t.keys {
		if k != 0 {
			fn(k, t.vals[i])
		}
	}
}
