package lsm

import (
	"math/rand"
	"testing"

	"github.com/ideadb/idea/internal/adm"
)

// TestSnapshotChangesMatchesModel: random upserts, deletes, flushes and
// compactions between two snapshots, on either filesystem. Applying
// what the newer snapshot's Changes yields since the stamp read before
// the older one must turn the older snapshot's contents into the
// newer's exactly; every key written after the stamp — including writes
// that raced into the older snapshot — must be yielded, a deleted one as
// a tombstone; and a change set whose components reach the snapshot's
// oldest must be refused.
func TestSnapshotChangesMatchesModel(t *testing.T) {
	opts := Options{MemBudget: 4 << 10, MaxComponents: 6}
	open := map[string]func(t *testing.T) *Partition{
		"memory": func(t *testing.T) *Partition { return memPartition(t, opts) },
		"durable": func(t *testing.T) *Partition {
			p, err := OpenPartition(NewOSFS(), t.TempDir(), opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { p.Close() })
			return p
		},
	}
	for name, mk := range open {
		t.Run(name, func(t *testing.T) {
			p := mk(t)
			r := rand.New(rand.NewSource(34))
			const keys = 200
			// write makes one random write and records in deleted
			// whether it removed its key.
			write := func(deleted map[int64]bool) {
				k := r.Int63n(keys)
				del := r.Intn(4) == 0
				var err error
				if del {
					_, err = p.Delete(adm.Int(k))
				} else {
					err = p.Upsert(adm.Int(k), rec(k, "v", adm.Int(r.Int63())))
				}
				if err != nil {
					t.Fatal(err)
				}
				deleted[k] = del
			}
			contents := func(s *Snapshot) map[int64]adm.Value {
				m := map[int64]adm.Value{}
				if err := s.Scan(func(k, v adm.Value) bool {
					m[k.IntVal()] = v.Detached() // v may lie in the scan's pinned block
					return true
				}); err != nil {
					t.Fatal(err)
				}
				return m
			}

			accepted, refused := 0, 0
			for round := 0; round < 60; round++ {
				stamp := p.Epoch()
				written := map[int64]bool{}
				for range r.Intn(3) {
					write(written) // after the stamp, yet in the older snapshot
				}
				model := contents(p.Snapshot())
				n := r.Intn(40)
				if round%10 == 9 {
					n = 300 // enough freezes for compactions of the whole level
				}
				for range n {
					write(written)
					switch r.Intn(20) {
					case 0:
						p.Flush()
					case 1:
						settle(t, p)
					}
				}

				now := p.Snapshot()
				lead := 0
				for lead < len(now.components) && now.components[lead].upToLSN > stamp {
					lead++
				}
				reachesOldest := lead > 0 && lead == len(now.components)
				cc, ok := now.Changes(stamp)
				if ok == reachesOldest {
					t.Fatalf("round %d: Changes ok=%v with %d of %d components past the stamp", round, ok, lead, len(now.components))
				}
				if !ok {
					refused++
					continue
				}
				accepted++
				yielded := map[int64]bool{} // key → yielded as a tombstone
				var last adm.Value
				for {
					k, v, more := cc.Next()
					if !more {
						break
					}
					if len(yielded) > 0 && adm.Compare(last, k) >= 0 {
						t.Fatalf("round %d: key %v yielded after %v", round, k, last)
					}
					last = k
					yielded[k.IntVal()] = v.IsMissing()
					if v.IsMissing() {
						delete(model, k.IntVal())
					} else {
						model[k.IntVal()] = v.Detached()
					}
				}
				if err := cc.Err(); err != nil {
					t.Fatal(err)
				}
				for k, del := range written {
					if tomb, ok := yielded[k]; !ok || tomb != del {
						t.Fatalf("round %d: key %d written (deleted=%v) since the stamp; yielded=%v tombstone=%v", round, k, del, ok, tomb)
					}
				}
				want := contents(now)
				if len(model) != len(want) {
					t.Fatalf("round %d: patched model has %d keys, the newer snapshot %d", round, len(model), len(want))
				}
				for k, v := range want {
					if !adm.Equal(model[k], v) {
						t.Fatalf("round %d: key %d is %v in the patched model, %v in the newer snapshot", round, k, model[k], v)
					}
				}
			}
			t.Logf("%d change sets accepted, %d refused", accepted, refused)
			if accepted < 30 || refused == 0 {
				t.Fatal("the model needs many accepted change sets and some refused ones")
			}
		})
	}
}
