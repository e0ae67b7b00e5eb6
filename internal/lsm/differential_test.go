package lsm

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/ideadb/idea/internal/adm"
)

// diffVer builds version ver of record k. The indexed fields depend on
// the version, so a replacement moves the record in both indexes.
func diffVer(k, ver int64) adm.Value {
	return rec(k, "ver", adm.Int(ver), "grp", adm.Int(ver%7), "loc", adm.Point(float64(ver%13), float64(k%11)))
}

// diffIndexes is the B-tree + R-tree pair the differential attaches.
type diffIndexes struct {
	bt *BTreeIndex
	rt *RTreeIndex
}

func attachDiffIndexes(t testing.TB, p *Partition) diffIndexes {
	t.Helper()
	ix := diffIndexes{
		bt: NewBTreeIndex("byGrp", FieldKeyExtractor("grp")),
		rt: NewRTreeIndex("byLoc", FieldRectExtractor("loc")),
	}
	for _, idx := range []SecondaryIndex{ix.bt, ix.rt} {
		if err := p.AttachIndex(idx); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

// TestDurableDifferential: a randomized write stream — single upserts,
// inserts (fresh and duplicate), deletes, and small frames that may
// repeat a key or carry tombstones — applied in lockstep to three arms —
// a partition that is reopened every N ops, after a clean close and
// from a crash image by turns (so the checkpoint and the WAL replay
// both run mid-stream), a partition that is never reopened, and a shadow map,
// which is the oracle — must agree on every point lookup, the live
// count, and full ordered scans at every checkpoint. Both partitions
// carry a B-tree and an R-tree index: the never-reopened pair is
// maintained write by write for the whole stream, the reopened pair is
// re-attached (and so back-filled from run files, which after a crash
// include the replayed tail recovery flushed) after every reopen, and both must equal the brute-force
// oracle at every checkpoint. Small budgets keep flushes, compactions,
// and WAL rotation continuously in play, and every seed must reopen from
// a crash image at least once with a logged tail to replay — which the
// open flushes as a run — so the replay arm is never vacuous.
func TestDurableDifferential(t *testing.T) {
	const (
		seeds    = 8
		ops      = 300
		keySpace = 200
	)
	opts := Options{MemBudget: 2 << 10, MaxComponents: 3, WALSegBytes: 4 << 10}
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			fsys := NewMemFS()
			dir := "part"
			durable, err := OpenPartition(fsys, dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			steady := memPartition(t, opts)
			durableIx, steadyIx := attachDiffIndexes(t, durable), attachDiffIndexes(t, steady)
			shadow := make(map[int64]int64)

			r := rand.New(rand.NewSource(seed))
			reopenEvery := 30 + r.Intn(30)
			version := int64(0)
			replays := 0 // crash reopens that replayed a logged entry
			for op := 1; op <= ops; op++ {
				k := r.Int63n(keySpace)
				switch r.Intn(10) {
				case 0, 1: // delete
					_, live := shadow[k]
					for _, p := range []*Partition{durable, steady} {
						if existed, err := p.Delete(adm.Int(k)); err != nil || existed != live {
							t.Fatalf("op %d: Delete(%d) = %v, %v; shadow says existed=%v", op, k, existed, err, live)
						}
					}
					delete(shadow, k)
				case 2: // batch upsert (a small frame)
					n := 1 + r.Intn(8)
					keys := make([]adm.Value, n)
					recs := make([]adm.Value, n)
					for i := 0; i < n; i++ {
						bk := r.Int63n(keySpace)
						if i > 0 && r.Intn(4) == 0 {
							bk = keys[r.Intn(i)].IntVal() // repeat a key: last occurrence wins
						}
						version++
						keys[i] = adm.Int(bk)
						if r.Intn(5) == 0 {
							recs[i] = adm.Missing() // a tombstone inside the frame
							delete(shadow, bk)
							continue
						}
						recs[i] = diffVer(bk, version)
						shadow[bk] = version
					}
					if err := durable.UpsertBatch(keys, recs); err != nil {
						t.Fatal(err)
					}
					if err := steady.UpsertBatch(keys, recs); err != nil {
						t.Fatal(err)
					}
				case 3: // insert: succeeds only on a key with no live record
					version++
					_, live := shadow[k]
					for _, p := range []*Partition{durable, steady} {
						if err := p.Insert(adm.Int(k), diffVer(k, version)); (err != nil) != live {
							t.Fatalf("op %d: Insert(%d) = %v; shadow says live=%v", op, k, err, live)
						}
					}
					if !live {
						shadow[k] = version
					}
				default: // single upsert
					version++
					for _, p := range []*Partition{durable, steady} {
						if err := p.Upsert(adm.Int(k), diffVer(k, version)); err != nil {
							t.Fatal(err)
						}
					}
					shadow[k] = version
				}

				if op%reopenEvery == 0 {
					crash, tail := op/reopenEvery%2 == 0, durable.Stats().MemEntries
					if crash {
						fsys = crashImage(t, durable).(*MemFS)
					} else if err := durable.Close(); err != nil {
						t.Fatalf("op %d: close: %v", op, err)
					}
					durable, err = OpenPartition(fsys, dir, opts)
					if err != nil {
						t.Fatalf("op %d: reopen: %v", op, err)
					}
					if flushed := durable.Stats().FlushedRuns; crash && tail > 0 && flushed == 0 {
						t.Fatalf("op %d: recovered from a crash with %d memtable entries but replayed nothing", op, tail)
					} else if !crash && flushed != 0 {
						t.Fatalf("op %d: reopened after a clean close and flushed %d runs", op, flushed)
					} else if crash && flushed > 0 {
						replays++
					}
					durableIx = attachDiffIndexes(t, durable)
				}
				if op%25 == 0 || op == ops {
					diffCheck(t, op, durable, steady, shadow)
					checkIndexesAgainstScan(t, fmt.Sprintf("op %d reopened", op), durable, durableIx.bt, durableIx.rt)
					checkIndexesAgainstScan(t, fmt.Sprintf("op %d never reopened", op), steady, steadyIx.bt, steadyIx.rt)
				}
			}
			if err := durable.Err(); err != nil {
				t.Fatal(err)
			}
			if err := durable.Close(); err != nil {
				t.Fatal(err)
			}
			if replays == 0 {
				t.Fatalf("no reopen from a crash image replayed a logged entry (reopening every %d ops)", reopenEvery)
			}
		})
	}
}

// diffCheck compares the three arms exhaustively.
func diffCheck(t *testing.T, op int, reopened, steady *Partition, shadow map[int64]int64) {
	t.Helper()
	if got, want := liveLen(t, reopened.Snapshot()), len(shadow); got != want {
		t.Fatalf("op %d: reopened Len = %d, shadow %d", op, got, want)
	}
	if got, want := liveLen(t, steady.Snapshot()), len(shadow); got != want {
		t.Fatalf("op %d: never-reopened Len = %d, shadow %d", op, got, want)
	}
	for k, v := range shadow {
		rg, rok, _ := reopened.Get(adm.Int(k))
		sg, sok, _ := steady.Get(adm.Int(k))
		if !rok || rg.Field("ver").IntVal() != v {
			t.Fatalf("op %d: reopened Get(%d) = %v,%v want ver=%d", op, k, rg, rok, v)
		}
		if !sok || sg.Field("ver").IntVal() != v {
			t.Fatalf("op %d: never-reopened Get(%d) = %v,%v want ver=%d", op, k, sg, sok, v)
		}
	}
	// Ordered scans must agree element for element.
	rc := reopened.Snapshot().Cursor()
	sc := steady.Snapshot().Cursor()
	for i := 0; ; i++ {
		rk, rv, rok := rc.Next()
		sk, sv, sok := sc.Next()
		if rok != sok {
			t.Fatalf("op %d: scan lengths diverge at %d (reopened=%v never-reopened=%v)", op, i, rok, sok)
		}
		if !rok {
			break
		}
		if adm.Compare(rk, sk) != 0 || adm.Compare(rv, sv) != 0 {
			t.Fatalf("op %d: scan item %d diverges: %s=%s vs %s=%s", op, i, rk, rv, sk, sv)
		}
	}
}
