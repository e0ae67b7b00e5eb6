package lsm

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
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
// encoded bytes plus memItemOverhead, one tree entry — is what it keeps
// alive. After frames of ascending keys, as a feed delivers them, the
// live heap the memtable grew by is at most 1.25× the bytes it was
// charged: its tree fills the leaves the keys leave behind rather than
// keeping half-full ones, and no leaf keeps an array a merge grew. The
// bound holds too when two collectors' frames alternate and the later
// one's keys arrive first — ingest-plain's shape — so the earlier
// frame's keys land inside leaves that split half-full.
func TestMemtableCostsWhatItIsCharged(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, arm := range []struct {
		name  string
		frame func(f int) int // which frame is written f-th
	}{
		{"ascending", func(f int) int { return f }},
		{"interleaved", func(f int) int { return f ^ 1 }},
	} {
		t.Run(arm.name, func(t *testing.T) {
			// MemFS would keep the WAL's bytes on the heap too.
			p, err := OpenPartition(NewOSFS(), t.TempDir(), Options{MemBudget: 1 << 30, MaxComponents: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			const frames, frame = 200, 128
			write := func(f int) {
				f = arm.frame(f)
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
		})
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

// UpsertFrame writes a routed frame as Dataset.UpsertFrame does, minus
// the routing rule and the slab's reuse, for tests that build keys and
// recs beside the slab (routedFrame) and may read them after a flush:
// the memtable keeps enc as it keeps any batch buffer. enc must hold
// exactly those keys, each followed by its record as a view of the bytes
// after it: the write reads them from enc.
func (p *Partition) UpsertFrame(keys, recs []adm.Value, enc []byte) error {
	off := 0
	for i := range keys {
		n, err := adm.SkipBinary(enc[off:])
		if err != nil || adm.Compare(adm.ViewAlias(enc[off:off+n]), keys[i]) != 0 {
			return fmt.Errorf("key %d is not %v at offset %d of the slab", i, keys[i], off)
		}
		m, ok := adm.ViewAt(recs[i], enc, off+n)
		if !ok {
			return fmt.Errorf("record %d is not a view of the slab after its key", i)
		}
		off += n + m
	}
	if off != len(enc) {
		return fmt.Errorf("the slab holds %d bytes past its records", len(enc)-off)
	}
	_, err := p.write(writeUpsert, enc, len(keys), nil)
	return err
}

// TestUpsertFrameMatchesUpsertBatch: a well-formed slab written through
// Dataset.UpsertFrame and its keys and records written through
// UpsertBatch come to the same thing — the same WAL bytes, the same
// point reads and scan, the same state after a reopen — and the memtable
// is charged the same, but for the slab's spare room, which it keeps
// alive too. Only the slab path keeps its records where they lie.
func TestUpsertFrameMatchesUpsertBatch(t *testing.T) {
	const n, spare = 16, 5
	var keys, recs []adm.Value
	for i := range n {
		keys, recs = append(keys, adm.Int(int64(i))), append(recs, padRec(i, 30))
	}
	// A string key, and a key written twice: the later record wins.
	keys, recs = append(keys, adm.String("k"), adm.Int(3)), append(recs, padRec(100, 10), padRec(103, 20))
	enc, _ := routedFrame(keys, recs, spare)
	opts := Options{MemBudget: 1 << 30}
	type arm struct {
		fs *MemFS
		ds *Dataset
	}
	open := func(fs *MemFS) *Dataset {
		t.Helper()
		ds, err := OpenDataset(fs, "ds", "D", nil, "id", 1, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		return ds
	}
	slab, values := arm{fs: NewMemFS()}, arm{fs: NewMemFS()}
	slab.ds, values.ds = open(slab.fs), open(values.fs)
	if err := slab.ds.UpsertFrame(0, enc); err != nil {
		t.Fatal(err)
	}
	if err := values.ds.Partition(0).UpsertBatch(keys, recs); err != nil {
		t.Fatal(err)
	}

	walBytes := func(a arm) []byte {
		t.Helper()
		b, err := readFileAll(a.fs, "ds/p000/"+walSegmentName(1))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if got, want := walBytes(slab), walBytes(values); !bytes.Equal(got, want) {
		t.Fatalf("the slab logged\n %x\nUpsertBatch logs\n %x", got, want)
	}
	charged := func(p *Partition) int {
		p.mu.RLock()
		defer p.mu.RUnlock()
		return p.memBytes
	}
	if got, want := charged(slab.ds.Partition(0)), charged(values.ds.Partition(0))+spare; got != want {
		t.Fatalf("the slab is charged %d, want %d", got, want)
	}
	for _, key := range keys {
		got, gok, gerr := slab.ds.Partition(0).Get(key)
		want, wok, werr := values.ds.Partition(0).Get(key)
		if gerr != nil || werr != nil || !gok || !wok || !bytes.Equal(adm.AppendBinary(nil, got), adm.AppendBinary(nil, want)) {
			t.Fatalf("key %v: the slab path reads %v (%v, %v), UpsertBatch %v (%v, %v)", key, got, gok, gerr, want, wok, werr)
		}
	}
	got, _, _ := slab.ds.Partition(0).Get(keys[0])
	if _, kept := adm.ViewAt(got, enc, adm.BinarySize(keys[0])); !kept {
		t.Fatal("the memtable does not keep the slab's record where it lies")
	}
	scan := func(ds *Dataset) (out []string) {
		sc := ds.Scan()
		for key, rec, ok := sc.Next(); ok; key, rec, ok = sc.Next() {
			out = append(out, fmt.Sprintf("%v=%x", key, adm.AppendBinary(nil, rec)))
		}
		return out
	}
	want := scan(values.ds)
	if got := scan(slab.ds); !slices.Equal(got, want) || len(want) != n+1 {
		t.Fatalf("the slab path scans\n %v\nUpsertBatch\n %v", got, want)
	}
	for _, a := range []*arm{&slab, &values} {
		if err := a.ds.Close(); err != nil {
			t.Fatal(err)
		}
		a.ds = open(a.fs)
	}
	if got := scan(slab.ds); !slices.Equal(got, want) || !slices.Equal(scan(values.ds), want) {
		t.Fatalf("after a reopen the slab path scans\n %v\nUpsertBatch\n %v", got, want)
	}
}

// TestUpsertFrameRefusesMalformedSlab: a slab the write path cannot read
// back entry by entry — cut inside a key or a record, with a byte or a
// key left over, holding a record nested deeper than the decoder
// accepts — or one holding a key its partition does not own is refused
// before anything is logged: the WAL's LSN and bytes and the memtable
// are as they were.
func TestUpsertFrameRefusesMalformedSlab(t *testing.T) {
	fs := NewMemFS()
	ds, err := OpenDataset(fs, "ds", "D", nil, "id", 2, Options{MemBudget: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	// Keys partition 0 owns, and one partition 1 owns.
	var own []adm.Value
	var foreign adm.Value
	for i := 0; len(own) < 4 || foreign.Kind() == adm.KindMissing; i++ {
		key := adm.String(fmt.Sprintf("key-%d", i))
		if ds.Route(key) == 0 {
			own = append(own, key)
		} else {
			foreign = key
		}
	}
	pair := func(key, rec adm.Value) []byte {
		return adm.AppendBinary(adm.AppendBinary(nil, key), rec)
	}
	good := pair(own[0], padRec(0, 20))
	if err := ds.UpsertFrame(0, good); err != nil {
		t.Fatal(err)
	}
	deep := adm.Int(7)
	for range adm.MaxDepth {
		deep = adm.Array([]adm.Value{deep})
	}
	deepRec := adm.ObjectValue(adm.ObjectFromPairs("id", adm.Int(1), "v", deep))
	if _, err := adm.SkipBinary(adm.AppendBinary(nil, deepRec)); err == nil {
		t.Fatalf("a record nested %d deep decodes", adm.MaxDepth+1)
	}
	ownPair := pair(own[1], padRec(1, 20))
	keyBytes := adm.AppendBinary(nil, own[2])
	for _, c := range []struct {
		name string
		enc  []byte
	}{
		{"a truncated key", append(slices.Clone(ownPair), keyBytes[:len(keyBytes)-1]...)},
		{"a truncated record", ownPair[:len(ownPair)-1]},
		{"one trailing byte", append(slices.Clone(ownPair), 0xff)},
		{"a key with no record", append(slices.Clone(ownPair), keyBytes...)},
		{"a record nested too deep", append(slices.Clone(ownPair), pair(own[3], deepRec)...)},
		{"a key the partition does not own", append(slices.Clone(ownPair), pair(foreign, padRec(2, 20))...)},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := ds.Partition(0)
			state := func() (lsn uint64, wal []byte, entries, charged int) {
				t.Helper()
				wal, err := readFileAll(fs, "ds/p000/"+walSegmentName(1))
				if err != nil {
					t.Fatal(err)
				}
				p.mu.RLock()
				defer p.mu.RUnlock()
				return p.wal.LSN(), wal, p.mem.Len(), p.memBytes
			}
			lsn0, wal0, entries0, charged0 := state()
			err := ds.UpsertFrame(0, c.enc)
			if err == nil {
				t.Fatal("the slab was written")
			}
			t.Log(err)
			lsn1, wal1, entries1, charged1 := state()
			if lsn1 != lsn0 || !bytes.Equal(wal1, wal0) || entries1 != entries0 || charged1 != charged0 {
				t.Fatalf("a refused slab moved the partition: LSN %d → %d, WAL %d → %d bytes, %d → %d entries charged %d → %d",
					lsn0, lsn1, len(wal0), len(wal1), entries0, entries1, charged0, charged1)
			}
			if _, ok, _ := p.Get(own[1]); ok {
				t.Fatal("the refused slab's first record is stored")
			}
		})
	}
	want := fmt.Sprintf("storage partition 0 was sent key %v, which partition 1 owns", foreign)
	if err := ds.UpsertFrame(0, pair(foreign, padRec(2, 20))); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("writing a foreign key = %v, want an error containing %q", err, want)
	}
	deepErr := ds.UpsertFrame(0, pair(own[3], deepRec))
	if deepErr == nil || !strings.Contains(deepErr.Error(), "lsm: write refused:") {
		t.Fatalf("writing a record nested too deep = %v, want it refused", deepErr)
	}
}
