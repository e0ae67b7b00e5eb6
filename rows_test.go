package idea

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"github.com/ideadb/idea/internal/adm"
)

// probeModel is record i of the dataset fullCacheCluster loads: about
// 300 bytes, one of 100 cats.
func probeModel(i int) Value {
	return Obj("id", i, "cat", fmt.Sprintf("c%02d", i%100), "pad", fmt.Sprintf("%0256d", i))
}

// fullCacheCluster is a two-node cluster holding n probeModel records
// in D, indexed on cat and flushed to runs, behind a block cache of a
// third of their size or less.
func fullCacheCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{Nodes: 2, BlockCacheBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.MustExecute(`
		CREATE TYPE T AS OPEN { id: int64 };
		CREATE DATASET D(T) PRIMARY KEY id;
		CREATE INDEX by_cat ON D(cat) TYPE BTREE;
	`)
	for lo := 0; lo < n; lo += 4000 {
		recs := make([]any, 0, 4000)
		for i := lo; i < min(lo+4000, n); i++ {
			recs = append(recs, probeModel(i))
		}
		c.MustExecute(`UPSERT INTO D ($1)`, Arr(recs...))
	}
	ds, _ := c.inner.Dataset("D")
	for i := range ds.NumPartitions() {
		p := ds.Partition(i)
		p.Flush()
		if err := p.WaitForFlush(); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestFullCacheProbeRowsSurviveRecycling: an index probe over a dataset
// three times the size of a full block cache reads its rows where they
// lie, in blocks it holds only until the next row is pulled, and the
// Values Rows hands out — through Value, All and Collect — are still the
// stored records after leased scans have recycled every block of the
// cache. AppendADM encodes the current row as it lies.
func TestFullCacheProbeRowsSurviveRecycling(t *testing.T) {
	const n = 24000
	c := fullCacheCluster(t, n)
	ctx := context.Background()
	const probe = `SELECT VALUE t FROM D t WHERE t.cat = $1`
	const groupBy = `SELECT t.cat AS cat, count(*) AS n FROM D t GROUP BY t.cat`
	recycle := func() {
		t.Helper()
		for range 2 {
			if groups := queryVals(t, c, groupBy); len(groups) != 100 {
				t.Fatalf("%d groups, want 100", len(groups))
			}
		}
	}
	recycle() // fills the cache
	kept := map[int]Value{}
	keep := func(v Value) {
		t.Helper()
		id := int(v.Field("id").Int())
		if _, dup := kept[id]; dup {
			t.Fatalf("record %d seen twice", id)
		}
		kept[id] = v
	}
	transient := 0
	for cat := range 30 {
		rows, err := c.Query(ctx, probe, fmt.Sprintf("c%02d", cat))
		if err != nil {
			t.Fatal(err)
		}
		switch cat % 3 {
		case 0:
			for rows.Next() {
				if rows.transient {
					transient++
				}
				dec, _, err := adm.DecodeBinary(rows.AppendADM(nil))
				v := rows.Value()
				if err != nil || adm.Compare(dec, v.v) != 0 {
					t.Fatalf("cat %d: AppendADM encodes %v, Value is %v (%v)", cat, dec, v, err)
				}
				keep(v)
			}
		case 1:
			for v, err := range rows.All() {
				if err != nil {
					t.Fatal(err)
				}
				keep(v)
			}
		default:
			vals, err := rows.Collect()
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vals {
				keep(v)
			}
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		rows.Close()
		if cat%5 == 4 {
			recycle()
		}
	}
	recycle()
	st := c.StorageStats()
	if transient == 0 || st.BlockCacheEvictions == 0 || st.BlockCacheRecycled == 0 {
		t.Fatalf("%d transient rows, %d evictions, %d recycled loads: the probes read no full cache", transient, st.BlockCacheEvictions, st.BlockCacheRecycled)
	}
	if len(kept) != 30*n/100 {
		t.Fatalf("the probes kept %d rows, want %d", len(kept), 30*n/100)
	}
	for id, v := range kept {
		if want := probeModel(id); !bytes.Equal(v.JSON(), want.JSON()) {
			t.Fatalf("record %d reads %s once the cache recycled its block", id, v.JSON())
		}
	}
}
