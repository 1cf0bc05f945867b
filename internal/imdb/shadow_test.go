package imdb

import "testing"

// TestShadowMatchesMachine pins EnableShadow's contract: on clones of one
// populated table, a shadowed stream and a machine-backed stream of the
// same mix and seed produce the same ops, the same completed count and
// the same checksum, for every layout. The table is small next to the
// transaction count, so fields are read back after being written and the
// checksum depends on the written values. Afterwards the machine-backed
// clone holds exactly the shadow's values, and the shadowed clone's
// machine still holds the populated ones.
func TestShadowMatchesMachine(t *testing.T) {
	const tuples, txns = 128, 400
	for _, layout := range []Layout{RowStore, ColumnStore, GSStore} {
		tpl := newDB(t, layout, tuples)
		for _, mix := range []TxnMix{{1, 0, 1}, {4, 2, 2}} {
			for _, seed := range []uint64{3, 11} {
				shadowDB, machDB := tpl.Clone(), tpl.Clone()
				var shadowRes, machRes TxnResult
				shadowed, err := shadowDB.TransactionStream(mix, txns, seed, &shadowRes)
				if err != nil {
					t.Fatal(err)
				}
				shadowed.EnableShadow()
				backed, err := machDB.TransactionStream(mix, txns, seed, &machRes)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; ; i++ {
					a, aok := shadowed.Next()
					b, bok := backed.Next()
					if aok != bok {
						t.Fatalf("%v %v seed %d: op %d: shadowed stream ends %v, machine-backed %v", layout, mix, seed, i, !aok, !bok)
					}
					if !aok {
						break
					}
					if a.Kind != b.Kind || a.Cycles != b.Cycles || a.Addr != b.Addr || a.Pattern != b.Pattern ||
						a.Shuffled != b.Shuffled || a.AltPattern != b.AltPattern || a.PC != b.PC {
						t.Fatalf("%v %v seed %d: op %d: shadowed %+v, machine-backed %+v", layout, mix, seed, i, a, b)
					}
				}
				if shadowRes != machRes {
					t.Fatalf("%v %v seed %d: shadowed result %+v, machine-backed %+v", layout, mix, seed, shadowRes, machRes)
				}
				if shadowRes.Completed != txns {
					t.Fatalf("%v %v seed %d: completed %d, want %d", layout, mix, seed, shadowRes.Completed, txns)
				}
				written := 0
				for tu := 0; tu < tuples; tu++ {
					for f := 0; f < FieldsPerTuple; f++ {
						want, ok := shadowed.shadow.Get(fieldKey(tu, f))
						if !ok {
							want = InitialValue(tu, f)
						} else {
							written++
						}
						if got, err := machDB.ReadField(tu, f); err != nil || got != want {
							t.Fatalf("%v %v seed %d: machine-backed field (%d,%d) = %#x (%v), shadow %#x", layout, mix, seed, tu, f, got, err, want)
						}
						if got, err := shadowDB.ReadField(tu, f); err != nil || got != InitialValue(tu, f) {
							t.Fatalf("%v %v seed %d: shadowed clone's machine field (%d,%d) = %#x (%v), want the populated %#x", layout, mix, seed, tu, f, got, err, InitialValue(tu, f))
						}
					}
				}
				if mix.WO+mix.RW > 0 && written == 0 {
					t.Fatalf("%v %v seed %d: the stream wrote no field", layout, mix, seed)
				}
			}
		}
	}
}
