package lsm

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"github.com/ideadb/idea/internal/adm"
)

// slabFeed writes frames to a one-partition dataset as a feed's
// collector does: each frame's slab comes from Dataset.Slab, sized for
// the frame, and is handed to UpsertFrame. It remembers every slab it
// wrote, and whether each slab Slab gave it was a recycled one — every
// byte of its capacity recycledByte — or fresh memory. It waits for the
// flusher after every frame, so the next frame's Slab sees every flush
// the last one started.
type slabFeed struct {
	t        testing.TB
	ds       *Dataset
	written  map[*byte]bool
	recycled int
}

func newSlabFeed(t testing.TB, ds *Dataset) *slabFeed {
	return &slabFeed{t: t, ds: ds, written: map[*byte]bool{}}
}

// frame writes keys[i] with the record encoded as recs[i], as one frame.
func (f *slabFeed) frame(keys []int64, recs [][]byte) {
	f.t.Helper()
	size := 0
	for i, k := range keys {
		size += adm.BinarySize(adm.Int(k)) + len(recs[i])
	}
	slab := f.ds.Slab(0, size)
	if cap(slab) < size || len(slab) != 0 {
		f.t.Fatalf("Slab(0, %d) = len %d cap %d", size, len(slab), cap(slab))
	}
	if bytes.Count(slab[:cap(slab)], []byte{recycledByte}) == cap(slab) {
		if !f.written[unsafe.SliceData(slab)] {
			f.t.Fatal("a recycled slab the feed never wrote")
		}
		f.recycled++
	}
	for i, k := range keys {
		slab = adm.AppendBinary(slab, adm.Int(k))
		slab = append(slab, recs[i]...)
	}
	if err := f.ds.UpsertFrame(0, slab); err != nil {
		f.t.Fatal(err)
	}
	f.written[unsafe.SliceData(slab)] = true
	if err := f.ds.Partition(0).WaitForFlush(); err != nil {
		f.t.Fatal(err)
	}
}

// TestUnreadMemtableSlabsAreRecycled: once a memtable no reader saw is
// flushed, Dataset.Slab hands its slabs to the next frames, overwritten
// (recycledByte), and STATS counts each one; what the partition stores
// is still exactly what was written.
func TestUnreadMemtableSlabsAreRecycled(t *testing.T) {
	ds := memDataset(t, "ds", nil, "id", 1, Options{MemBudget: 32 << 10, MaxComponents: 4})
	feed := newSlabFeed(t, ds)
	r := rand.New(rand.NewSource(5))
	model := map[int64][]byte{}
	const frames = 300
	for range frames {
		n := 20 + r.Intn(8)
		keys, recs := make([]int64, n), make([][]byte, n)
		for i := range keys {
			keys[i] = r.Int63n(600)
			recs[i] = adm.AppendBinary(nil, padRec(int(keys[i]), 40+r.Intn(20)))
			model[keys[i]] = recs[i]
		}
		feed.frame(keys, recs)
	}
	st := ds.Stats()
	t.Logf("%d flushes; %d of %d frames in recycled slabs, %d slabs in all", st.FlushedRuns, feed.recycled, frames, len(feed.written))
	if feed.recycled == 0 || st.RecycledSlabs != uint64(feed.recycled) {
		t.Fatalf("%d recycled slabs came back overwritten, STATS counts %d; want as many, and some", feed.recycled, st.RecycledSlabs)
	}
	seen := 0
	if err := ds.Partition(0).Snapshot().Scan(func(k, v adm.Value) bool {
		if want := model[k.IntVal()]; !bytes.Equal(adm.AppendBinary(nil, v), want) {
			t.Fatalf("key %d reads %v, want %v", k.IntVal(), v, adm.ViewAlias(want))
		}
		seen++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if seen != len(model) {
		t.Fatalf("scan saw %d keys, want %d", seen, len(model))
	}
}

// TestReadMemtableSlabsAreNeverRecycled: a view of a memtable's records
// that a reader took — a point read, a snapshot's point read, a
// snapshot cursor's record — keeps its bytes however many memtables are
// flushed and recycled after it: the memtable it was read from escaped.
func TestReadMemtableSlabsAreNeverRecycled(t *testing.T) {
	for _, c := range []struct {
		name string
		read func(p *Partition) adm.Value
	}{
		{"Partition.Get", func(p *Partition) adm.Value {
			v, _, _ := p.Get(adm.Int(7))
			return v
		}},
		{"Snapshot.Get", func(p *Partition) adm.Value {
			v, _, _ := p.Snapshot().Get(adm.Int(7))
			return v
		}},
		{"Snapshot.Cursor", func(p *Partition) adm.Value {
			cu := p.Snapshot().Cursor()
			for k, v, ok := cu.Next(); ok; k, v, ok = cu.Next() {
				if k.IntVal() == 7 {
					return v
				}
			}
			return adm.Value{}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ds := memDataset(t, "ds", nil, "id", 1, Options{MemBudget: 16 << 10, MaxComponents: 4})
			feed := newSlabFeed(t, ds)
			frame := func(first int64) {
				keys, recs := make([]int64, 20), make([][]byte, 20)
				for i := range keys {
					keys[i] = first + int64(i)
					recs[i] = adm.AppendBinary(nil, padRec(int(keys[i]), 50))
				}
				feed.frame(keys, recs)
			}
			frame(0)
			v := c.read(ds.Partition(0))
			want := adm.AppendBinary(nil, padRec(7, 50))
			if !bytes.Equal(adm.AppendBinary(nil, v), want) {
				t.Fatalf("read %v, want %v", v, adm.ViewAlias(want))
			}
			ds.Partition(0).Flush()
			for f := range int64(100) {
				frame(1000 + 20*f)
			}
			if feed.recycled == 0 {
				t.Fatal("no slab was recycled: the test shows nothing")
			}
			if got := adm.AppendBinary(nil, v); !bytes.Equal(got, want) {
				t.Fatalf("after %d recycled slabs the view reads % x, want % x", feed.recycled, got, want)
			}
		})
	}
}

// TestFrameSlabAllocationsIndependentOfFlushes: once a first memtable's
// worth of frames is flushed, a feed nobody reads takes its slabs from
// the memtables it flushed, so the slab bytes it allocates per record
// are flat — and next to nothing — over 2 and over 20 memtables' worth
// of frames. The bytes are counted around Dataset.Slab alone, with the
// flusher settled, so nothing else allocates in between.
func TestFrameSlabAllocationsIndependentOfFlushes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const budget, perFrame = 32 << 10, 24
	rec := adm.AppendBinary(nil, padRec(1, 100))
	perRecord := len(rec) + adm.BinarySize(adm.Int(1<<20))
	slabBytes := func(memtables int) float64 {
		ds := memDataset(t, "ds", nil, "id", 1, Options{MemBudget: budget, MaxComponents: 4})
		p := ds.Partition(0)
		var before, after runtime.MemStats
		fresh, records, key := uint64(0), 0, int64(1<<20)
		for p.Stats().FlushedRuns < uint64(memtables) {
			settle(t, p)
			runtime.ReadMemStats(&before)
			slab := ds.Slab(0, perFrame*perRecord)
			runtime.ReadMemStats(&after)
			if p.Stats().FlushedRuns > 0 { // the first memtable's slabs are fresh
				fresh += after.TotalAlloc - before.TotalAlloc
				records += perFrame
			}
			for range perFrame {
				slab = adm.AppendBinary(slab, adm.Int(key))
				slab = append(slab, rec...)
				key++
			}
			if err := ds.UpsertFrame(0, slab); err != nil {
				t.Fatal(err)
			}
		}
		return float64(fresh) / float64(records)
	}
	two, twenty := slabBytes(2), slabBytes(20)
	t.Logf("slab bytes per %d-byte record after the first memtable: %.1f over 2 memtables, %.1f over 20", perRecord, two, twenty)
	if limit := float64(perRecord) / 8; two > limit || twenty > limit {
		t.Fatalf("slab bytes per record %.1f over 2 memtables, %.1f over 20; want both under %.0f", two, twenty, limit)
	}
}

// TestSlabListFitsAndBounds: the free list hands out the smallest slab
// of n to n+n/4 bytes, and keeps what a flush returns only while it
// holds less than its limit.
func TestSlabListFitsAndBounds(t *testing.T) {
	var l slabList
	l.put([][]byte{make([]byte, 10, 100), make([]byte, 0, 130), make([]byte, 0, 120), make([]byte, 0, 500)}, 300)
	if l.bytes != 350 || len(l.slabs) != 3 {
		t.Fatalf("kept %d slabs of %d bytes, want the first three, 350", len(l.slabs), l.bytes)
	}
	for _, c := range []struct{ n, want int }{{101, 120}, {80, 100}, {110, 130}, {100, 0}} {
		s := l.get(c.n)
		if cap(s) != c.want || len(s) != 0 {
			t.Fatalf("get(%d) = len %d cap %d, want cap %d", c.n, len(s), cap(s), c.want)
		}
	}
	if l.bytes != 0 || l.recycled() != 3 {
		t.Fatalf("after three gets the list holds %d bytes and counts %d, want 0 and 3", l.bytes, l.recycled())
	}
}
