package lsm

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/frame"
	"github.com/ideadb/idea/internal/index"
)

// Hostile-input tests for the on-disk decoders: crafted or arbitrary
// bytes must come back as errors (or as a torn tail), never as a panic
// or as an allocation the input length does not cover.

// heapGrowth runs fn and reports the bytes it allocated.
func heapGrowth(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// decodeHeapBound is what decoding n input bytes may allocate. The
// multiple is adm's: DecodeBinary sizes an array from a count capped by
// the bytes that remain, at each of up to 200 nesting levels of
// ~100-byte Values. What the bound catches is an allocation sized from
// a count or length the input does not back at all.
func decodeHeapBound(n int) uint64 { return 1<<20 + 200*100*uint64(n) }

func writeFile(t testing.TB, fs *MemFS, name string, data []byte) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// runIndex locates the index frame of a run file image.
func runIndex(data []byte) (indexOff, footerOff int, ok bool) {
	footerOff = len(data) - runFooterSize
	if footerOff < runHeaderSize {
		return 0, 0, false
	}
	off := binary.LittleEndian.Uint64(data[footerOff:])
	return int(off), footerOff, off >= uint64(runHeaderSize) && off+frame.HeaderSize < uint64(footerOff)
}

// TestOpenRunHostileIndex: a CRC-valid index that lies — about how many
// blocks or entries the run has, or about where a block is — fails
// openRun, before any block is read and without an allocation sized
// from the lie.
func TestOpenRunHostileIndex(t *testing.T) {
	items := make([]index.Item, 4000)
	for i := range items { // pads of noise keep the blocks near their payload's size
		items[i] = index.Item{Key: adm.Int(int64(i)), Val: rec(int64(i), "pad", adm.String(noise(uint64(i), 48)))}
	}
	fs := NewMemFS()
	rf, err := writeRun(fs, "runs", "good.run", runEnv{}, fillItems(items))
	if err != nil {
		t.Fatal(err)
	}
	rf.close()
	good, err := readFileAll(fs, "runs/good.run")
	if err != nil {
		t.Fatal(err)
	}
	indexOff, footerOff, ok := runIndex(good)
	if !ok || len(good) < 200<<10 {
		t.Fatalf("unexpected run image: %d bytes, index at %d", len(good), indexOff)
	}

	// Each case re-encodes the head of the index payload — entries,
	// blocks, and the first block's off and len — and keeps the rest.
	for name, edit := range map[string]func(entries, blocks, off, length uint64) [4]uint64{
		"inflated block count": func(e, b, o, l uint64) [4]uint64 { return [4]uint64{e, uint64(len(good)), o, l} },
		"inflated entry count": func(e, b, o, l uint64) [4]uint64 { return [4]uint64{1 << 62, b, o, l} },
		"block before header":  func(e, b, o, l uint64) [4]uint64 { return [4]uint64{e, b, 0, l} },
		"block inside index":   func(e, b, o, l uint64) [4]uint64 { return [4]uint64{e, b, uint64(indexOff), l} },
		"block over the index": func(e, b, o, l uint64) [4]uint64 { return [4]uint64{e, b, o, uint64(indexOff)} },
		"block of no payload":  func(e, b, o, l uint64) [4]uint64 { return [4]uint64{e, b, o, frame.HeaderSize} },
	} {
		payload, _, err := frame.Decode(good[indexOff:footerOff], int64(len(good)))
		if err != nil {
			t.Fatal(err)
		}
		p := frame.NewReader(payload)
		head := edit(p.Uvarint(), p.Uvarint(), p.Uvarint(), p.Uvarint())
		bad := frame.Begin(append([]byte(nil), good[:indexOff]...))
		for _, u := range head {
			bad = binary.AppendUvarint(bad, u)
		}
		bad = append(bad, p.Take(p.Len())...)
		frame.Seal(bad, indexOff)
		// The footer still points at indexOff; the index frame may have
		// changed size, which only moves the footer.
		bad = append(bad, good[footerOff:]...)
		writeFile(t, fs, "runs/bad.run", bad)

		var openErr error
		grew := heapGrowth(func() {
			var rf *runFile
			if rf, openErr = openRun(fs, "runs", "bad.run", runEnv{}); openErr == nil {
				rf.close()
			}
		})
		if openErr == nil {
			t.Errorf("%s: openRun accepted the index", name)
		}
		if grew > uint64(len(bad)) {
			t.Errorf("%s: openRun allocated %d bytes for a %d-byte file", name, grew, len(bad))
		}
	}
}

// TestLoadBlockHostileStructure: a block whose checksum holds but whose
// contents do not — an unknown codec, an lz stream that does not decode
// to the length it declares, or a payload whose entries do not parse (an
// unknown kind tag inside a record, a count that leaves bytes over or
// runs short) — is refused whole when it is loaded, by queries and by
// compaction alike: the lookup fails, the scan stops, the merge aborts,
// and each reader's error says why. Nothing is handed up from it, so
// no view is ever asked to read bad bytes.
func TestLoadBlockHostileStructure(t *testing.T) {
	items := make([]index.Item, 100) // one block, a one-byte count
	for i := range items {
		items[i] = index.Item{Key: adm.Int(int64(i)), Val: rec(int64(i), "pad", adm.String("0123456789012345678901234567890123456789"))}
	}
	fs := NewMemFS()
	// A payload that does not parse is made before the writer encodes it,
	// so the codec and the checksum hold around it.
	writeLying := func(lie func(*runWriter)) {
		t.Helper()
		rf, err := writeRun(fs, "runs", "bad.run", runEnv{}, func(w *runWriter) error {
			err := fillItems(items)(w)
			lie(w)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if codecs := blockCodecs(t, rf); !bytes.Equal(codecs, []byte{frame.CodecLZ}) {
			t.Fatalf("block codecs %v, want one lz block", codecs)
		}
		rf.close()
	}
	rf, err := writeRun(fs, "runs", "good.run", runEnv{}, fillItems(items))
	if err != nil {
		t.Fatal(err)
	}
	first := rf.blocks[0]
	rf.close()
	good, err := readFileAll(fs, "runs/good.run")
	if err != nil {
		t.Fatal(err)
	}
	// A codec that lies is an edit of the body on disk, resealed.
	writeEdited := func(edit func(body []byte)) {
		t.Helper()
		bad := append([]byte(nil), good...)
		edit(bad[int(first.off)+frame.HeaderSize : int(first.off)+first.length])
		frame.Seal(bad[:int(first.off)+first.length], int(first.off))
		writeFile(t, fs, "runs/bad.run", bad)
	}
	// redeclare rewrites the lz body's raw length in place.
	redeclare := func(delta int) func([]byte) {
		return func(body []byte) {
			n, k := binary.Uvarint(body[1:])
			if binary.PutUvarint(body[1:], uint64(int(n)+delta)) != k {
				t.Fatalf("raw length %d%+d changes its width", n, delta)
			}
		}
	}
	for _, tc := range []struct {
		name, want string
		write      func()
	}{
		{"unknown codec", "unknown codec 7", func() { writeEdited(func(b []byte) { b[0] = 7 }) }},
		{"raw length one short", "lz: sequence runs past the declared length", func() { writeEdited(redeclare(-1)) }},
		{"raw length one over", "lz: stream ends before the declared length", func() { writeEdited(redeclare(+1)) }},
		{"unknown kind tag in a record", "kind tag", func() { writeLying(func(w *runWriter) { w.scratch[2] = 0xEE }) }}, // key tag, key varint, record tag
		{"count one short", "trailing bytes", func() { writeLying(func(w *runWriter) { w.count-- }) }},
		{"count one over", "truncated", func() { writeLying(func(w *runWriter) { w.count++ }) }},
	} {
		name := tc.name
		tc.write()
		rf, err := openRun(fs, "runs", "bad.run", runEnv{cache: NewBlockCache(1 << 20)})
		if err != nil {
			t.Fatalf("%s: openRun: %v", name, err)
		}
		if v, ok, err := probeGet(rf, adm.Int(1)); ok || err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: lookup returned %v, %v, error %v; want %q", name, v, ok, err, tc.want)
		}
		c := rf.cursor(new(Leases))
		if key, _, ok, _ := c.advance(); ok || c.err == nil || !strings.Contains(c.err.Error(), tc.want) {
			t.Errorf("%s: cursor yielded %x (%v), error %v; want %q", name, key, ok, c.err, tc.want)
		}
		raw := rf.rawReader()
		if _, _, ok, err := raw.advance(); ok || err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: raw reader advanced (%v), error %v; want %q", name, ok, err, tc.want)
		}
		rf.close()
	}
}

func goldenFile(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzOpenRun opens arbitrary bytes as a run file and, when they open,
// scans and probes them. With reseal set the harness re-seals the
// frames the footer and the index point at, so the fuzzer reaches the
// payload parsers behind the CRC.
func FuzzOpenRun(f *testing.F) {
	golden := goldenFile(f, "run-v3.golden")
	f.Add(golden, false)
	f.Add(golden, true)
	f.Add(golden[:len(golden)-1], true)
	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		data = append([]byte(nil), data...)
		fs := NewMemFS()
		open := func() *runFile {
			writeFile(t, fs, "runs/f.run", data)
			var rf *runFile
			if grew := heapGrowth(func() { rf, _ = openRun(fs, "runs", "f.run", runEnv{}) }); grew > decodeHeapBound(len(data)) {
				t.Fatalf("openRun allocated %d bytes for a %d-byte file", grew, len(data))
			}
			return rf
		}
		if indexOff, footerOff, ok := runIndex(data); ok && reseal {
			frame.Seal(data[:footerOff], indexOff)
		}
		rf := open()
		if rf != nil && reseal {
			blocks := rf.blocks
			rf.close()
			for _, b := range blocks {
				frame.Seal(data[:int(b.off)+b.length], int(b.off))
			}
			rf = open() // the blocks may overlap the index: nil again is fine
		}
		if rf == nil {
			return
		}
		defer rf.close()
		if grew := heapGrowth(func() {
			// Structure is checked when a block loads: whatever the cursor
			// yields reads to the end without failing.
			c := rf.cursor(new(Leases))
			for _, _, ok, _ := c.advance(); ok; _, _, ok, _ = c.advance() {
				rec := adm.View(c.val)
				rec.Field("v")
				adm.Hash(rec)
			}
			for _, fence := range [][]byte{rf.firstKey, rf.lastKey} {
				kp := getProbe(fence)
				rf.get(kp, nil)
				putProbe(kp)
			}
		}); grew > decodeHeapBound(len(data)) {
			t.Fatalf("reading the run allocated %d bytes for a %d-byte file", grew, len(data))
		}
	})
}

// FuzzWALReplay replays arbitrary bytes as a WAL segment — the newest
// one (where a bad frame is a torn tail) or an older one (where it is
// corruption). With reseal set the harness fixes the CRC of every frame
// whose length fits, so the fuzzer reaches the entry parser. Recovery
// must be repeatable: what one replay accepts, the next one returns
// again.
func FuzzWALReplay(f *testing.F) {
	golden := goldenFile(f, "wal-v1.golden")
	for _, last := range []bool{true, false} {
		f.Add(golden, last, false)
		f.Add(golden[:len(golden)-3], last, false)
		f.Add(append(golden[:walHeaderSize:walHeaderSize], golden[walHeaderSize+3:]...), last, true)
	}
	f.Fuzz(func(t *testing.T, data []byte, last, reseal bool) {
		data = append([]byte(nil), data...)
		for off := walHeaderSize; reseal && off+frame.HeaderSize < len(data); {
			end := off + frame.HeaderSize + int(binary.LittleEndian.Uint32(data[off:]))
			if end <= off+frame.HeaderSize || end > len(data) {
				break
			}
			frame.Seal(data[:end], off)
			off = end
		}
		fs := NewMemFS()
		writeFile(t, fs, "wal/"+walSegmentName(1), data)
		if !last {
			writeFile(t, fs, "wal/"+walSegmentName(2), append([]byte(walMagic), walVersion))
		}
		replay := func() (n int, err error) {
			w, err := OpenWAL(fs, "wal", 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			err = w.Replay(0, func(_ uint64, entries []entry) error { n += len(entries); return nil })
			return n, err
		}
		var n int
		var err error
		if grew := heapGrowth(func() { n, err = replay() }); grew > decodeHeapBound(len(data)) {
			t.Fatalf("replay allocated %d bytes for a %d-byte segment", grew, len(data))
		}
		if err != nil {
			return
		}
		if again, err := replay(); err != nil || again != n {
			t.Fatalf("second replay: %d entries, %v; the first returned %d", again, err, n)
		}
	})
}

// manifestFixture is a partition directory "p" as a crash left it: its
// valid manifest names one run holding the first half of ops, and its
// one WAL segment (the current one, which truncation never removes)
// holds all of them. Beside it, in "q", lies a copy of the run that is
// none of the partition's business.
type manifestFixture struct {
	files   map[string][]byte // path -> content, MANIFEST included
	ops     []index.Item      // ops[i] was logged at LSN i+1; MISSING deletes
	runUpTo uint64            // the run holds ops[:runUpTo]
	valid   manifest
}

const (
	fixtureRun = "p/run-000001.run"
	fixtureWAL = "p/wal-000001.log"
	bystander  = "q/run-000001.run"
)

func newManifestFixture(t testing.TB) *manifestFixture {
	t.Helper()
	fs := NewMemFS()
	opts := Options{MemBudget: 1 << 30, MaxComponents: 8, WALSegBytes: 1 << 30}
	p, err := OpenPartition(fs, "p", opts)
	if err != nil {
		t.Fatal(err)
	}
	fx := &manifestFixture{files: map[string][]byte{}}
	write := func(lo, hi int64) {
		for i := lo; i < hi; i++ {
			it := index.Item{Key: adm.Int(i % 40), Val: rec(i%40, "v", adm.Int(i))}
			if i%11 == 10 {
				it.Val = adm.Missing()
			}
			if err := p.UpsertBatch([]adm.Value{it.Key}, []adm.Value{it.Val}); err != nil {
				t.Fatal(err)
			}
			fx.ops = append(fx.ops, it)
		}
	}
	write(0, 60)
	p.Flush()
	if err := p.WaitForFlush(); err != nil {
		t.Fatal(err)
	}
	fx.runUpTo = flushedLSN(p)
	write(60, 100)
	img := crashImage(t, p)
	for name, data := range dirImage(t, img, "p") {
		fx.files["p/"+name] = []byte(data)
	}
	fx.files[bystander] = fx.files[fixtureRun]
	if fx.valid, err = loadManifest(img, "p"); err != nil || len(fx.files) != 4 || fx.runUpTo != 60 || len(fx.valid.Runs) != 1 {
		t.Fatalf("fixture: %d files, run up to LSN %d, manifest %+v, %v", len(fx.files), fx.runUpTo, fx.valid, err)
	}
	return fx
}

// fs returns a fresh filesystem holding the fixture, with manifest as
// p/MANIFEST.
func (fx *manifestFixture) fs(t testing.TB, manifest []byte) *MemFS {
	fs := NewMemFS()
	for name, data := range fx.files {
		writeFile(t, fs, name, data)
	}
	writeFile(t, fs, "p/"+manifestName, manifest)
	return fs
}

// intact reports whether the named fixture file is still there, byte for
// byte.
func (fx *manifestFixture) intact(fs *MemFS, name string) bool {
	data, err := readFileAll(fs, name)
	return err == nil && bytes.Equal(data, fx.files[name])
}

// state is what a manifest with the given watermark recovers to: the
// run's ops if it names the run, then every op the log holds past the
// watermark.
func (fx *manifestFixture) state(namesRun bool, flushedLSN uint64) map[int64]int64 {
	ops := fx.ops[min(flushedLSN, uint64(len(fx.ops))):]
	if namesRun {
		ops = append(fx.ops[:fx.runUpTo:fx.runUpTo], ops...)
	}
	state := map[int64]int64{}
	for _, op := range ops {
		if op.Val.IsMissing() {
			delete(state, op.Key.IntVal())
		} else {
			state[op.Key.IntVal()] = op.Val.Field("v").IntVal()
		}
	}
	return state
}

// A hostileManifest is an edit that makes the fixture's manifest one no
// flush or compaction could have written, with what the refusal must say.
type hostileManifest struct {
	refusal string
	edit    func(*manifest)
}

func hostileManifests(valid manifest) []hostileManifest {
	second := func(file string, maxLSN uint64) func(*manifest) {
		return func(m *manifest) {
			m.NextSeq = 3
			m.Runs = append(m.Runs, runMeta{File: file, MaxLSN: maxLSN})
		}
	}
	return []hostileManifest{
		// The next flush — recovery's own — would create, and so truncate,
		// the run the manifest names.
		{"next_file_seq 1", func(m *manifest) { m.NextSeq = 1 }},
		// Out of the directory and back in, and into another.
		{"runs[0].file", func(m *manifest) { m.Runs[0].File = "../p/run-000001.run" }},
		{"runs[1].file", second("../q/run-000001.run", valid.FlushedLSN)},
		{"runs[0].file", func(m *manifest) { m.Runs[0].File = "run-1.run" }},
		{"runs[1].file \"run-000001.run\" is named twice", second("run-000001.run", valid.FlushedLSN)},
		{"runs[0].max_lsn", func(m *manifest) { m.Runs[0].MaxLSN = valid.FlushedLSN + 1 }},
		{"runs[1].max_lsn", second("run-000002.run", valid.FlushedLSN-1)},
		// A run described by fences that name other keys, and one of 40
		// entries named without any: neither manifest describes the file.
		{"manifest fences [100, 139] do not match file fences [0, 39]", func(m *manifest) {
			m.Runs[0].FirstKey, m.Runs[0].LastKey = adm.AppendBinary(nil, adm.Int(100)), adm.AppendBinary(nil, adm.Int(139))
		}},
		{"manifest names a run of 40 entries without its fences", func(m *manifest) {
			m.Runs[0].FirstKey, m.Runs[0].LastKey = nil, nil
		}},
	}
}

// edited returns the fixture's manifest after edit.
func (fx *manifestFixture) edited(t testing.TB, edit func(*manifest)) []byte {
	m := fx.valid
	m.Runs = slices.Clone(m.Runs)
	edit(&m)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestManifestRefusesInconsistentState: recovery deletes what the
// manifest does not name and writes a run where the manifest says the
// next one goes, so a manifest that could send either at a file it names
// — or out of the directory — is refused, by the field that is wrong,
// before anything is touched.
func TestManifestRefusesInconsistentState(t *testing.T) {
	fx := newManifestFixture(t)
	p, err := OpenPartition(fx.fs(t, fx.edited(t, func(*manifest) {})), "p", DefaultOptions())
	if err != nil {
		t.Fatalf("the fixture's own manifest: %v", err)
	}
	p.Close()
	for _, hostile := range hostileManifests(fx.valid) {
		data := fx.edited(t, hostile.edit)
		fs := fx.fs(t, data)
		before := dirImage(t, fs, "p")
		p, err := OpenPartition(fs, "p", DefaultOptions())
		if err == nil {
			p.Close()
			t.Errorf("%s opened, want a refusal naming %s", data, hostile.refusal)
			continue
		}
		if !strings.Contains(err.Error(), hostile.refusal) {
			t.Errorf("%s refused without naming %s: %v", data, hostile.refusal, err)
		}
		if !maps.Equal(before, dirImage(t, fs, "p")) || !fx.intact(fs, bystander) {
			t.Errorf("refusing %s changed files", data)
		}
	}
}

// FuzzLoadManifest opens the fixture partition under arbitrary bytes as
// its manifest. Whatever they say, the open does not panic, leaves the
// log and the file outside the directory alone, and either fails with
// the named run untouched or recovers exactly what that manifest
// describes — the run if it names it, the log past its watermark — into
// an empty memtable, without having written over the run.
func FuzzLoadManifest(f *testing.F) {
	fx := newManifestFixture(f)
	f.Add(fx.edited(f, func(*manifest) {}))
	for _, hostile := range hostileManifests(fx.valid) {
		f.Add(fx.edited(f, hostile.edit))
	}
	f.Add([]byte(`{"version":1,"next_file_seq":7,"runs":[]}`))
	f.Add([]byte(`{"version":1,"flushed_lsn":80,"runs":null,"checkpoints":{"feed":3}}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := fx.fs(t, data)
		p, err := OpenPartition(fs, "p", DefaultOptions())
		if !fx.intact(fs, fixtureWAL) || !fx.intact(fs, bystander) {
			t.Fatal("the open changed the log or a file outside the directory")
		}
		if err != nil {
			if !fx.intact(fs, fixtureRun) {
				t.Fatalf("a refused open (%v) changed the run", err)
			}
			return
		}
		defer p.Close()
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatalf("opened under a manifest that does not decode: %v", err)
		}
		namesRun := len(m.Runs) > 0
		if namesRun && !fx.intact(fs, fixtureRun) {
			t.Fatal("the open wrote over the run its manifest names")
		}
		want := fx.state(namesRun, m.FlushedLSN)
		n := 0
		err = p.Snapshot().Scan(func(key, rec adm.Value) bool {
			if v, ok := want[key.IntVal()]; !ok || rec.Field("v").IntVal() != v {
				t.Fatalf("key %s = %s, the manifest describes %d (present %v)", key, rec, v, ok)
			}
			n++
			return true
		})
		if err != nil || n != len(want) || p.Stats().MemEntries != 0 {
			t.Fatalf("scanned %d of %d records, err %v, %d memtable entries", n, len(want), err, p.Stats().MemEntries)
		}
	})
}
