package imdb

// shadowTab is a flat open-addressing hash table from field key
// (t*FieldsPerTuple+f) to the field's current value, the storage behind
// the shadow overlay. It replaces a Go map on the overlay hot path:
// writeVal performs one assignment per written field, and at Figure 9
// scale the runtime map's per-assign overhead and incremental growth
// showed up as a major fraction of the sampled fast-forward profile.
// Slots store key+1 so a zero slot means empty (key 0 is a real field);
// fields are never deleted, so probing needs no tombstones.
type shadowTab struct {
	keys []uint32 // key+1; 0 = empty
	vals []uint64
	n    int
}

const shadowMinSlots = 1024 // power of two

func newShadowTab() *shadowTab { return newShadowTabSized(0) }

// newShadowTabSized builds a table that holds n entries without growing:
// the smallest power-of-two slot count keeping the load factor under 3/4.
func newShadowTabSized(n int) *shadowTab {
	slots := shadowMinSlots
	for n > slots/4*3 {
		slots *= 2
	}
	return &shadowTab{keys: make([]uint32, slots), vals: make([]uint64, slots)}
}

func (t *shadowTab) get(k uint32) (uint64, bool) {
	mask := uint32(len(t.keys) - 1)
	for i := (k + 1) * 2654435761 & mask; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case k + 1:
			return t.vals[i], true
		case 0:
			return 0, false
		}
	}
}

func (t *shadowTab) set(k uint32, v uint64) {
	if t.n >= len(t.keys)/4*3 {
		t.grow()
	}
	mask := uint32(len(t.keys) - 1)
	for i := (k + 1) * 2654435761 & mask; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case k + 1:
			t.vals[i] = v
			return
		case 0:
			t.keys[i], t.vals[i] = k+1, v
			t.n++
			return
		}
	}
}

func (t *shadowTab) grow() {
	oldKeys, oldVals := t.keys, t.vals
	t.keys = make([]uint32, len(oldKeys)*2)
	t.vals = make([]uint64, len(oldVals)*2)
	t.n = 0
	for i, k := range oldKeys {
		if k != 0 {
			t.set(k-1, oldVals[i])
		}
	}
}
