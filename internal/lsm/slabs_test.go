package lsm

import (
	"bytes"
	"math/rand"
	"path"
	"runtime"
	"slices"
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
// So do the nodes of a tree a reader holds: a snapshot taken before
// those flushes still finds every record in its frozen tree, and a
// cursor opened on it before them reads on through the same nodes.
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
	t.Run("frozen tree nodes", func(t *testing.T) {
		ds := memDataset(t, "ds", nil, "id", 1, Options{MemBudget: 64 << 10, MaxComponents: 4})
		feed := newSlabFeed(t, ds)
		const n = 400 // keys 0..n-1, in four leaves of the tree the snapshot freezes
		frame := func(first int64, count int) {
			keys, recs := make([]int64, count), make([][]byte, count)
			for i := range keys {
				keys[i] = first + int64(i)
				recs[i] = adm.AppendBinary(nil, padRec(int(keys[i]), 10))
			}
			feed.frame(keys, recs)
		}
		for first := int64(0); first < n; first += 100 {
			frame(first, 100)
		}
		s := ds.Partition(0).Snapshot()
		cu := s.Cursor()
		if k, _, ok := cu.Next(); !ok || k.IntVal() != 0 {
			t.Fatalf("the cursor starts at %v, want key 0", k)
		}
		for f := range int64(200) {
			frame(1000+20*f, 20)
		}
		if feed.recycled == 0 {
			t.Fatal("no slab was recycled: the test shows nothing")
		}
		for k := range int64(n) {
			if v, ok, err := s.Get(adm.Int(k)); err != nil || !ok || v.Field("id").IntVal() != k {
				t.Fatalf("after %d recycled slabs the snapshot reads key %d as %v, %v, %v", feed.recycled, k, v, ok, err)
			}
		}
		next := int64(1)
		for k, _, ok := cu.Next(); ok && k.IntVal() < n; k, _, ok = cu.Next() {
			if k.IntVal() != next {
				t.Fatalf("after %d recycled slabs the cursor reads key %d, want %d", feed.recycled, k.IntVal(), next)
			}
			next++
		}
		if next != n {
			t.Fatalf("the cursor read keys up to %d, want %d", next, n)
		}
	})
}

// TestFrameSlabAllocationsIndependentOfFlushes: once a first memtable's
// worth of frames is flushed, a feed nobody reads takes its memory from
// the memtables it flushed, so what it allocates per record is flat —
// and next to nothing — over 2 and over 20 memtables' worth of frames,
// at each place a stored frame's memory comes from:
//   - its slab (Dataset.Slab), asked for the same size every frame, or,
//     as two producers routing to one partition do, for sizes that move
//     by under 1 % a frame;
//   - the memtable's tree nodes, counted around UpsertFrame on a file
//     system whose log keeps no bytes.
//
// Each site is counted around its own call, with the flusher settled,
// so nothing else allocates in between. The slab arms count every frame
// after the first memtable's; the one-size arm's memtables are small
// enough that two fresh slabs each would cross the bound, and the
// drifting arm's four times as large, enough frames for a list that
// serves only slabs close to the size asked for to run dry within one.
// UpsertFrame also pays, once a memtable, for what no list recycles (its
// frameSlabs, the growth of its slab list, a new root's children array:
// about 6 KB), so the node arm fills memtables four times as large to
// spread that below the bound, and leaves out the frames that froze a
// memtable: the flush each started runs beside it.
func TestFrameSlabAllocationsIndependentOfFlushes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const perFrame = 24
	rec := adm.AppendBinary(nil, padRec(1, 100))
	perRecord := len(rec) + adm.BinarySize(adm.Int(1<<20))
	frameBytes := perFrame * perRecord
	oneSize := func(int) int { return frameBytes }
	r := rand.New(rand.NewSource(7))
	drift := [2]float64{1.01, 1.01}
	arms := []struct {
		name   string
		budget int // the memtable's
		// ask is the slab size frame f asks for, at least frameBytes.
		ask func(f int) int
		// nodes counts UpsertFrame's bytes rather than Slab's.
		nodes bool
	}{
		{"slabs of one size", 32 << 10, oneSize, false},
		{"slabs of drifting sizes", 128 << 10, func(f int) int {
			d := &drift[f%2]
			*d = min(1.02, max(1, *d+(r.Float64()-0.5)*0.019))
			return int(float64(frameBytes) * *d)
		}, false},
		{"memtable nodes", 128 << 10, oneSize, true},
	}
	alloc := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, arm := range arms {
		perRecordBytes := func(memtables int) float64 {
			ds, err := OpenDataset(walSink{NewMemFS()}, "ds", "ds", nil, "id", 1, Options{MemBudget: arm.budget, MaxComponents: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			p := ds.Partition(0)
			counted, records, key := uint64(0), 0, int64(1<<20)
			for f := 0; p.Stats().FlushedRuns < uint64(memtables); f++ {
				settle(t, p)
				var slab []byte
				slabBytes := alloc(func() { slab = ds.Slab(0, arm.ask(f)) })
				for range perFrame {
					slab = adm.AppendBinary(slab, adm.Int(key))
					slab = append(slab, rec...)
					key++
				}
				st := p.Stats()
				upsertBytes := alloc(func() { err = ds.UpsertFrame(0, slab) })
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case st.FlushedRuns == 0: // the first memtable's memory is fresh
				case !arm.nodes:
					counted += slabBytes
					records += perFrame
				case p.Stats().Flushes == st.Flushes:
					counted += upsertBytes
					records += perFrame
				}
			}
			return float64(counted) / float64(records)
		}
		two, twenty := perRecordBytes(2), perRecordBytes(20)
		t.Logf("%s: bytes per %d-byte record after the first memtable: %.1f over 2 memtables, %.1f over 20", arm.name, perRecord, two, twenty)
		if limit := float64(perRecord) / 8; two > limit || twenty > limit {
			t.Errorf("%s: bytes per record %.1f over 2 memtables, %.1f over 20; want both under %.0f", arm.name, two, twenty, limit)
		}
	}
}

// walSink is a MemFS whose log segments keep no bytes, so what a write
// allocates can be told from what the log's file does.
type walSink struct{ *MemFS }

func (fs walSink) Create(name string) (File, error) {
	f, err := fs.MemFS.Create(name)
	if _, isWAL := parseWALSegmentName(path.Base(name)); err != nil || !isWAL {
		return f, err
	}
	return &sinkFile{File: f}, nil
}

// sinkFile counts what is written to it and keeps none of it.
type sinkFile struct {
	File
	size int64
}

func (f *sinkFile) Write(p []byte) (int, error) {
	f.size += int64(len(p))
	return len(p), nil
}

func (f *sinkFile) Size() (int64, error) { return f.size, nil }

// TestSlabListFitsAndBounds: every slab the free list hands out has the
// list's one size — the largest request so far, rounded up to a size
// class — so any free slab serves any request, taken last in, first
// out. A flush's slabs are overwritten, and the list keeps those of its
// size while it holds less than its limit; a larger request raises the
// size and drops the slabs that no longer fit.
func TestSlabListFitsAndBounds(t *testing.T) {
	var l slabList
	first := l.get(100)
	if size := cap(first); size < 100 || size != cap(slices.Grow([]byte(nil), 100)) || l.size != size {
		t.Fatalf("get(100) = cap %d, list size %d; want both 100's size class", cap(first), l.size)
	}
	size := l.size
	a, b, c := l.get(10), l.get(size), make([]byte, 7, 64)
	for _, s := range [][]byte{a, b} {
		if cap(s) != size || len(s) != 0 {
			t.Fatalf("a fresh slab of len %d cap %d, want an empty one of %d", len(s), cap(s), size)
		}
	}
	l.put([][]byte{first[:3], c, a, b}, 2*size)
	if len(l.slabs) != 2 || &l.slabs[0][:1][0] != &first[:1][0] || &l.slabs[1][:1][0] != &a[:1][0] {
		t.Fatalf("kept %d slabs, want first and a: the slabs of the list's size, up to its limit", len(l.slabs))
	}
	for _, s := range [][]byte{first, c, a, b} {
		if n := bytes.Count(s[:cap(s)], []byte{recycledByte}); n != cap(s) {
			t.Fatalf("a returned slab holds %d overwritten bytes of %d", n, cap(s))
		}
	}
	if s := l.get(1); &s[:1][0] != &a[:1][0] || len(s) != 0 {
		t.Fatal("get did not hand out the slab put last, empty")
	}
	grown := l.get(size + 1)
	if cap(grown) <= size || l.size != cap(grown) || len(l.slabs) != 0 {
		t.Fatalf("get(%d) = cap %d with %d slabs left; want the next size class and an emptied list", size+1, cap(grown), len(l.slabs))
	}
	l.put([][]byte{b}, 10*size)
	if len(l.slabs) != 0 {
		t.Fatal("the list kept a slab smaller than its size")
	}
	if recycled, fresh := l.counts(); recycled != 1 || fresh != 4 {
		t.Fatalf("counts %d recycled and %d fresh, want 1 and 4", recycled, fresh)
	}
}
