package lsm

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"github.com/ideadb/idea/internal/adm"
)

// padRec is a four-field record whose encoding is a little over pad
// bytes.
func padRec(i, pad int) adm.Value {
	return adm.ObjectValue(adm.ObjectFromPairs(
		"id", adm.Int(int64(i)),
		"cat", adm.String(fmt.Sprintf("c%04d", i%1000)),
		"n", adm.Int(int64(i%7)),
		"pad", adm.String(strings.Repeat("p", pad)),
	))
}

// viewFrames builds frames of 128 records with ascending keys, each
// record a view of its own encoding — a frame as the feed delivers it.
func viewFrames(frames, pad int, views bool) (keys, recs [][]adm.Value) {
	const frame = 128
	for f := 0; f < frames; f++ {
		ks, rs := make([]adm.Value, frame), make([]adm.Value, frame)
		for i := range ks {
			id := f*frame + i
			ks[i], rs[i] = adm.Int(int64(id)), padRec(id, pad)
			if views {
				rs[i] = adm.View(adm.AppendBinary(nil, rs[i]))
			}
		}
		keys, recs = append(keys, ks), append(recs, rs)
	}
	return keys, recs
}

// TestMemBudgetCountsHeldBytes: the memtable is charged what it holds —
// the encoded key and record bytes of every entry written, replaced ones
// included, plus memItemOverhead each. (A reopened partition holds
// nothing: see TestReopenEndsQuiescent.)
func TestMemBudgetCountsHeldBytes(t *testing.T) {
	p := memPartition(t, Options{MemBudget: 1 << 30, MaxComponents: 8})
	want := 0
	charge := func(key, rec adm.Value) {
		want += adm.BinarySize(key) + adm.BinarySize(rec) + memItemOverhead
	}
	keys, recs := viewFrames(4, 300, true)
	for f := range keys {
		if err := p.UpsertBatch(keys[f], recs[f]); err != nil {
			t.Fatal(err)
		}
		for i := range keys[f] {
			charge(keys[f][i], recs[f][i])
		}
	}
	// Trees, a replacement, a string key, a delete and a checkpoint (which
	// lives outside the memtable and is not charged to it).
	for i := 0; i < 10; i++ {
		key, rec := adm.Int(int64(i)), padRec(i, 40)
		if err := p.Upsert(key, rec); err != nil {
			t.Fatal(err)
		}
		charge(key, rec)
	}
	if err := p.Upsert(adm.String("k"), padRec(1, 10)); err != nil {
		t.Fatal(err)
	}
	charge(adm.String("k"), padRec(1, 10))
	if _, err := p.Delete(adm.Int(3)); err != nil {
		t.Fatal(err)
	}
	charge(adm.Int(3), adm.Missing())
	if err := p.PutCheckpoint("feed", 42); err != nil {
		t.Fatal(err)
	}
	// A routed frame is charged its slab's capacity, spare room included:
	// the memtable keeps the whole slab alive.
	rk, rr := viewFrames(1, 200, false)
	for i := range rk[0] {
		rk[0][i] = adm.Int(int64(1000 + i))
	}
	enc, views := routedFrame(rk[0], rr[0], 777)
	if err := p.UpsertFrame(rk[0], views, enc); err != nil {
		t.Fatal(err)
	}
	want += cap(enc) + len(views)*memItemOverhead
	p.mu.RLock()
	got := p.memBytes
	p.mu.RUnlock()
	if got != want {
		t.Fatalf("memtable charged %d bytes, holds %d", got, want)
	}
}

// routedFrame lays keys and recs out as a collector routes them: one
// slab of key, record pairs with spare bytes of room left over, and the
// records as views of it.
func routedFrame(keys, recs []adm.Value, spare int) (enc []byte, views []adm.Value) {
	size := 0
	for i := range keys {
		size += adm.BinarySize(keys[i]) + adm.BinarySize(recs[i])
	}
	enc = make([]byte, 0, size+spare)
	views = make([]adm.Value, len(recs))
	for i := range keys {
		enc = adm.AppendBinary(enc, keys[i])
		at := len(enc)
		enc = adm.AppendBinary(enc, recs[i])
		views[i] = adm.View(enc[at:])
	}
	return enc, views
}

// TestMemtableCostsWhatItIsCharged: the memtable's charge — each entry's
// encoded bytes plus memItemOverhead, one B-tree Item — is what it
// keeps alive. After ascending frames, as a feed delivers them, the live
// heap the memtable grew by is at most 1.25× the bytes it was charged:
// its tree fills the leaves the keys leave behind rather than keeping
// half-full ones, and no leaf keeps an array a merge grew.
func TestMemtableCostsWhatItIsCharged(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	// MemFS would keep the WAL's bytes on the heap too.
	p, err := OpenPartition(NewOSFS(), t.TempDir(), Options{MemBudget: 1 << 30, MaxComponents: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const frames, frame = 200, 128
	write := func(f int) {
		keys, recs := make([]adm.Value, frame), make([]adm.Value, frame)
		for i := range keys {
			id := f*frame + i
			keys[i], recs[i] = adm.Int(int64(id)), adm.View(adm.AppendBinary(nil, padRec(id, 100)))
		}
		if err := p.UpsertBatch(keys, recs); err != nil {
			t.Fatal(err)
		}
	}
	held := func() (heap uint64, charged int) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		p.mu.RLock()
		defer p.mu.RUnlock()
		return ms.HeapAlloc, p.memBytes
	}
	const warm = 2 // the WAL's two commit buffers reach a frame's size
	for f := 0; f < warm; f++ {
		write(f)
	}
	heap0, charged0 := held()
	for f := warm; f < frames; f++ {
		write(f)
	}
	heap1, charged1 := held()
	live, charged := float64(heap1)-float64(heap0), float64(charged1-charged0)
	t.Logf("%d entries: %.0f bytes charged, %.0f live (%.2f×)", (frames-warm)*frame, charged, live, live/charged)
	if p.Stats().MemEntries != frames*frame || live > 1.25*charged {
		t.Fatalf("%d memtable entries hold %.0f live bytes, charged %.0f; want %d entries, at most 1.25×", p.Stats().MemEntries, live, charged, frames*frame)
	}
}

// upsertBatchCost reports the allocations and bytes one UpsertBatch of a
// 128-record frame costs, averaged over frames.
func upsertBatchCost(t testing.TB, keys, recs [][]adm.Value) (allocs, bytes float64) {
	opts := Options{MemBudget: 1 << 30, MaxComponents: 8}
	p, err := OpenPartition(NewOSFS(), t.TempDir(), opts) // MemFS would allocate the file's own chunks
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const warm = 2 // the WAL's two commit buffers reach a frame's size
	for f := 0; f < warm; f++ {
		if err := p.UpsertBatch(keys[f], recs[f]); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for f := warm; f < len(keys); f++ {
		if err := p.UpsertBatch(keys[f], recs[f]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(len(keys) - warm)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

// TestUpsertBatchAllocations: storing a frame of views allocates the
// batch's one buffer and the memtable's B-tree nodes — a count that does
// not depend on how wide the records are, and bytes that grow by one
// copy of the records (the WAL's commit buffers are reused).
func TestUpsertBatchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const frames, narrow, wide = 34, 100, 2100
	nk, nr := viewFrames(frames, narrow, true)
	wk, wr := viewFrames(frames, wide, true)
	na, nb := upsertBatchCost(t, nk, nr)
	wa, wb := upsertBatchCost(t, wk, wr)
	t.Logf("narrow: %.1f allocations, %.0f bytes per frame; wide: %.1f allocations, %.0f bytes per frame", na, nb, wa, wb)
	// (A wide frame's share of a WAL segment rotation is the fraction.)
	if diff := wa - na; diff > 2 || diff < -2 || na > 16 {
		t.Fatalf("%.1f allocations per narrow frame, %.1f per wide one; want the same, at most 16", na, wa)
	}
	if grew, copyOf := wb-nb, float64(128*(wide-narrow)); grew < copyOf || grew > copyOf*5/4 {
		t.Fatalf("%.0f more bytes of records per frame cost %.0f more bytes allocated, want one copy", copyOf, grew)
	}
}

// BenchmarkUpsertBatch prices storing a 128-record frame of tweet-sized
// records that arrive as views (a feed's frames: one buffer, one memcpy
// per record) and as trees (a statement's rows: encoded once, into the
// same buffer).
func BenchmarkUpsertBatch(b *testing.B) {
	for _, arm := range []struct {
		name  string
		views bool
	}{{"views", true}, {"trees", false}} {
		b.Run(arm.name, func(b *testing.B) {
			const frames = 256
			keys, recs := viewFrames(frames, 400, arm.views)
			p := memPartition(b, DefaultOptions())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.UpsertBatch(keys[i%frames], recs[i%frames]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*128)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// routedCost reports the allocations and bytes one UpsertFrame of a
// routed frame costs, averaged over rounds that rewrite keys already in
// the memtable — so the B-tree replaces items in place and what is left
// is the write itself.
func routedCost(t *testing.T, records, pad int) (allocs, bytes float64) {
	p, err := OpenPartition(NewOSFS(), t.TempDir(), Options{MemBudget: 1 << 30, MaxComponents: 8, WALSegBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const frames = 4
	type routed struct {
		keys, recs []adm.Value
		enc        []byte
	}
	var fs []routed
	for f := 0; f < frames; f++ {
		keys, recs := make([]adm.Value, records), make([]adm.Value, records)
		for i := range keys {
			id := f*records + i
			keys[i], recs[i] = adm.Int(int64(id)), padRec(id, pad)
		}
		enc, views := routedFrame(keys, recs, 0)
		fs = append(fs, routed{keys, views, enc})
	}
	write := func() {
		for _, fr := range fs {
			if err := p.UpsertFrame(fr.keys, fr.recs, fr.enc); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The batch's item scratch comes from a sync.Pool, which a collection
	// empties and which keeps a list per P: keep both from refilling it
	// mid-measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	write() // the keys enter the memtable; the WAL's commit buffers reach a frame's size
	write()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const rounds = 8
	for range rounds {
		write()
	}
	runtime.ReadMemStats(&after)
	n := float64(rounds * frames)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

// TestRoutedFrameWritesNoCopy: a frame that arrives as its own log
// payload is logged and kept as it stands, so writing it allocates the
// same few objects and bytes however many records it holds and however
// wide they are — no buffer, no per-record copy. (The copy path's one
// buffer is TestUpsertBatchAllocations'.)
func TestRoutedFrameWritesNoCopy(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, c := range []struct{ records, pad int }{{64, 100}, {64, 2100}, {512, 100}, {512, 2100}} {
		allocs, bytes := routedCost(t, c.records, c.pad)
		t.Logf("%d records of %d padding bytes: %.1f allocations, %.0f bytes per frame", c.records, c.pad, allocs, bytes)
		if allocs > 4 || bytes > 512 {
			t.Fatalf("%d records of %d padding bytes: %.1f allocations and %.0f bytes per frame, want a handful of fixed-size objects", c.records, c.pad, allocs, bytes)
		}
	}
}

// TestRoutedFrameLayoutFallback: the partition verifies a frame's slab
// before it logs it. A slab of the wrong length, a record that is not a
// view of the slab, a key whose bytes differ and a frame cut short of its
// slab all take the copy path — each logs exactly what UpsertBatch logs
// and is charged what UpsertBatch charges — and a well-formed frame logs
// the same bytes while the memtable keeps its slab.
func TestRoutedFrameLayoutFallback(t *testing.T) {
	const n = 16
	keys, recs := make([]adm.Value, n), make([]adm.Value, n)
	for i := range keys {
		keys[i], recs[i] = adm.Int(int64(i)), padRec(i, 30)
	}
	good, views := routedFrame(keys, recs, 5)
	long, longViews := routedFrame(keys, recs, 1)
	long = append(long, 0)
	otherKeys := append([]adm.Value(nil), keys...)
	otherKeys[n/2] = adm.Int(-1)
	copied := make([]adm.Value, n)
	for i := range recs {
		copied[i] = adm.View(adm.AppendBinary(nil, recs[i]))
	}
	for _, c := range []struct {
		name       string
		keys, recs []adm.Value
		enc        []byte
		routed     bool
	}{
		{"well-formed", keys, views, good, true},
		{"slab of the wrong length", keys, longViews, long, false},
		{"records not views of the slab", keys, copied, good, false},
		{"a key that differs", otherKeys, views, good, false},
		{"split by a connector that kept the slab", keys[:n/2], views[:n/2], good, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			framedFS, copiedFS := NewMemFS(), NewMemFS()
			pf, err := OpenPartition(framedFS, "part", Options{MemBudget: 1 << 30})
			if err != nil {
				t.Fatal(err)
			}
			defer pf.Close()
			pc, err := OpenPartition(copiedFS, "part", Options{MemBudget: 1 << 30})
			if err != nil {
				t.Fatal(err)
			}
			defer pc.Close()
			if err := pf.UpsertFrame(c.keys, c.recs, c.enc); err != nil {
				t.Fatal(err)
			}
			if err := pc.UpsertBatch(c.keys, c.recs); err != nil {
				t.Fatal(err)
			}
			got, err := readFileAll(framedFS, "part/"+walSegmentName(1))
			if err != nil {
				t.Fatal(err)
			}
			want, err := readFileAll(copiedFS, "part/"+walSegmentName(1))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("the frame logged\n %x\nUpsertBatch logs\n %x", got, want)
			}
			charged := func(p *Partition) int {
				p.mu.RLock()
				defer p.mu.RUnlock()
				return p.memBytes
			}
			wantCharge := charged(pc)
			if c.routed {
				wantCharge += cap(c.enc) - len(c.enc) // the slab's spare room is held too
			}
			if got := charged(pf); got != wantCharge {
				t.Fatalf("charged %d, want %d", got, wantCharge)
			}
			v, ok, _ := pf.Get(c.keys[0])
			if _, kept := adm.ViewAt(v, c.enc, adm.BinarySize(c.keys[0])); !ok || kept != c.routed {
				t.Fatalf("the memtable keeps the frame's slab: %v, want %v", kept, c.routed)
			}
		})
	}
}
