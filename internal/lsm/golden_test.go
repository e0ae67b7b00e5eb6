package lsm

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/frame"
	"github.com/ideadb/idea/internal/index"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// The golden-file tests pin the on-disk formats byte for byte. A
// legitimate format change must bump the relevant version byte
// (walVersion, runVersion, adm.BinaryVersion) AND regenerate the
// fixtures with -update; an accidental encoding drift fails here before
// it can corrupt anyone's stored data.

// goldenValues is a fixed, kind-diverse record set.
func goldenValues() ([]adm.Value, []adm.Value) {
	keys := []adm.Value{
		adm.Int(1),
		adm.Int(2),
		adm.Int(3),
		adm.String("four"),
	}
	recs := []adm.Value{
		adm.ObjectValue(adm.ObjectFromPairs(
			"id", adm.Int(1),
			"name", adm.String("alice"),
			"score", adm.Double(3.5),
			"tags", adm.Array([]adm.Value{adm.String("a"), adm.String("b")}),
		)),
		adm.ObjectValue(adm.ObjectFromPairs(
			"id", adm.Int(2),
			"loc", adm.Point(7.5, -8.25),
			"active", adm.Bool(true),
		)),
		adm.Missing(), // tombstone
		adm.ObjectValue(adm.ObjectFromPairs(
			"id", adm.String("four"),
			"note", adm.Null(),
		)),
	}
	return keys, recs
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run Golden -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden (%d vs %d bytes).\nIf the format change is intentional, bump the version byte and regenerate with -update.", name, len(got), len(want))
	}
}

// TestGoldenWALSegment pins the WAL segment format: header, framing,
// CRCs, and the adm binary encoding of the entries.
func TestGoldenWALSegment(t *testing.T) {
	fs := NewMemFS()
	w, err := OpenWAL(fs, "wal", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Replay(0, nil); err != nil {
		t.Fatal(err)
	}
	keys, recs := goldenValues()
	// Two frames: a batch of three, then a single-entry frame.
	var enc []byte
	for i := 0; i < 3; i++ {
		enc = adm.AppendBinary(enc, keys[i])
		enc = adm.AppendBinary(enc, recs[i])
	}
	w.appendEncoded(enc, 3)
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	enc = adm.AppendBinary(enc[:0], keys[3])
	enc = adm.AppendBinary(enc, recs[3])
	w.appendEncoded(enc, 1)
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := readFileAll(fs, "wal/wal-000001.log")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "wal-v1.golden", data)

	// The golden bytes must also replay — the read side is pinned too.
	n := 0
	err = w2Replay(t, fs, func(lsn uint64, key, rec adm.Value) {
		if adm.Compare(key, keys[n]) != 0 || adm.Compare(rec, recs[n]) != 0 {
			t.Fatalf("replay entry %d mismatch", n)
		}
		n++
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("replayed %d entries, want 4", n)
	}
}

func w2Replay(t *testing.T, fs FS, fn func(uint64, adm.Value, adm.Value)) error {
	t.Helper()
	w, err := OpenWAL(fs, "wal", 1<<20)
	if err != nil {
		return err
	}
	defer w.Close()
	return w.Replay(0, func(lsn uint64, entries []entry) error {
		for i, e := range entries {
			fn(lsn+uint64(i), keyOf(e), recOf(e))
		}
		return nil
	})
}

// probeGet is the test shorthand for a single-run point lookup through
// the pooled probe API.
func probeGet(rf *runFile, key adm.Value) (adm.Value, bool, error) {
	kp := encodeProbe(key)
	defer putProbe(kp)
	return rf.get(kp, nil)
}

// checkGoldenRun exercises the read side of an open run over the golden
// record set: entry count, point lookups, and a full cursor scan.
func checkGoldenRun(t *testing.T, rf *runFile, items []index.Item) {
	t.Helper()
	if rf.entries != len(items) {
		t.Fatalf("entries = %d, want %d", rf.entries, len(items))
	}
	for i, it := range items {
		got, ok, err := probeGet(rf, it.Key)
		if !ok || err != nil || adm.Compare(got, it.Val) != 0 {
			t.Fatalf("get(item %d) = %v,%v,%v", i, got, ok, err)
		}
	}
	if _, ok, err := probeGet(rf, adm.Int(999)); ok || err != nil {
		t.Fatalf("get(absent key) found something (%v)", err)
	}
	c := rf.cursor(new(Leases))
	for i := range items {
		key, _, ok, _ := c.advance()
		if !ok || adm.Compare(adm.ViewAlias(key), items[i].Key) != 0 {
			t.Fatalf("cursor item %d mismatch", i)
		}
	}
	if _, _, ok, _ := c.advance(); ok {
		t.Fatal("cursor overran")
	}
	if first, last := adm.ViewAlias(rf.firstKey), adm.ViewAlias(rf.lastKey); adm.Compare(first, items[0].Key) != 0 || adm.Compare(last, items[len(items)-1].Key) != 0 {
		t.Fatalf("fences = [%v, %v], want [%v, %v]", first, last, items[0].Key, items[len(items)-1].Key)
	}
	if c.err != nil {
		t.Fatal(c.err)
	}
}

// goldenItems is the golden record set, then repetitive records up to
// the writer's cut — so they fill an lz-coded block — then one record of
// incompressible bytes that the tail block stores as it is: the fixture
// pins both codec bytes.
func goldenItems() []index.Item {
	keys, recs := goldenValues()
	var items []index.Item
	size := 0 // what the writer's first block holds
	add := func(key, val adm.Value) {
		items = append(items, index.Item{Key: key, Val: val})
		size += len(adm.AppendBinary(adm.AppendBinary(nil, key), val))
	}
	for i := range 3 {
		add(keys[i], recs[i])
	}
	for k := int64(4); size < runBlockTarget; k++ {
		add(adm.Int(k), rec(k, "text", adm.String("the same few words, over and over again"), "n", adm.Int(k%7)))
	}
	add(adm.Int(1000), rec(1000, "noise", adm.String(noise(0, 1024))))
	add(keys[3], recs[3])
	return items
}

// noise is n bytes of the pseudo-random sequence seed names, over 64
// letters: no four of them repeat often enough for the lz codec to
// shorten them.
func noise(seed uint64, n int) string {
	const letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	b := make([]byte, n)
	x := 0x9E3779B97F4A7C15 ^ seed
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = letters[x>>58]
	}
	return string(b)
}

// blockCodecs reads the codec byte of each of a run's blocks.
func blockCodecs(t testing.TB, rf *runFile) []byte {
	t.Helper()
	codecs := make([]byte, len(rf.blocks))
	for i, b := range rf.blocks {
		if _, err := rf.f.ReadAt(codecs[i:i+1], b.off+frame.HeaderSize); err != nil {
			t.Fatal(err)
		}
	}
	return codecs
}

// TestGoldenRunFile pins the version-3 run-file format: header, block
// framing and codecs, bloom section, extended block index, footer.
func TestGoldenRunFile(t *testing.T) {
	items := goldenItems()
	fs := NewMemFS()
	rf, err := writeRun(fs, "runs", "golden.run", runEnv{}, fillItems(items))
	if err != nil {
		t.Fatal(err)
	}
	rf.close()

	data, err := readFileAll(fs, "runs/golden.run")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "run-v3.golden", data)

	// Read side: the golden bytes must open, point-look-up, and scan.
	rf, err = openRun(fs, "runs", "golden.run", runEnv{})
	if err != nil {
		t.Fatal(err)
	}
	defer rf.close()
	// (openRun accepts no version byte but runVersion; see
	// TestGoldenVersionBytes.)
	if rf.bloom == nil {
		t.Fatal("v3 run opened without a bloom filter")
	}
	if codecs := blockCodecs(t, rf); !bytes.Equal(codecs, []byte{frame.CodecLZ, frame.CodecStored}) {
		t.Fatalf("block codecs %v, want one lz block and one stored", codecs)
	}
	checkGoldenRun(t, rf, items)
}

// TestGoldenVersionBytes pins the version constants themselves: bumping
// one without regenerating fixtures (or vice versa) fails loudly.
func TestGoldenVersionBytes(t *testing.T) {
	if walVersion != 1 || runVersion != 3 || adm.BinaryVersion != 1 {
		t.Fatalf("format versions changed (wal=%d run=%d adm=%d): regenerate golden files with -update and update this test",
			walVersion, runVersion, adm.BinaryVersion)
	}
	wal, err := os.ReadFile(filepath.Join("testdata", "wal-v1.golden"))
	if err != nil {
		t.Skip("golden files not generated yet")
	}
	if string(wal[:len(walMagic)]) != walMagic || wal[len(walMagic)] != walVersion {
		t.Fatal("WAL golden header does not carry the current magic+version")
	}
	run, err := os.ReadFile(filepath.Join("testdata", "run-v3.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if string(run[:len(runMagic)]) != runMagic || run[len(runMagic)] != runVersion {
		t.Fatal("run golden header does not carry the current magic+version")
	}
	// Version 3 is the only run format: any other version byte — the
	// retired v1 and v2 included — is refused at open, not guessed at.
	for _, v := range []byte{1, 2, 0xFF} {
		other := append([]byte(nil), run...)
		other[len(runMagic)] = v
		fs := NewMemFS()
		f, err := fs.Create("runs/other.run")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(other); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("unsupported version %d", v)
		if _, err := openRun(fs, "runs", "other.run", runEnv{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("openRun(version byte %d) = %v, want %q", v, err, want)
		}
	}
}

// TestGoldenManifest pins the MANIFEST bytes a fixed history leaves on a
// MemFS, one line per store: three explicit flushes; a fourth, which
// completes a size tier whose compaction reaches the oldest run and so
// drops the tombstone; a fifth flush; then a checkpoint-only tail that
// Close's checkpoint stores. The flusher and Close write every manifest,
// so this covers each path that builds one.
func TestGoldenManifest(t *testing.T) {
	fs := NewMemFS()
	p, err := OpenPartition(fs, "p", Options{MemBudget: 1 << 30, MaxComponents: 8})
	if err != nil {
		t.Fatal(err)
	}
	var lines []byte
	capture := func(when string) {
		t.Helper()
		data, err := readFileAll(fs, "p/"+manifestName)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		lines = append(append(lines, data...), '\n')
	}
	for run := int64(0); run < 5; run++ {
		for k := run * 100; k < run*100+100; k++ {
			if err := p.Upsert(adm.Int(k), rec(k, "text", adm.String(noise(uint64(k), 48)))); err != nil {
				t.Fatal(err)
			}
		}
		if run == 2 {
			if _, err := p.Delete(adm.Int(7)); err != nil {
				t.Fatal(err)
			}
		}
		p.Flush()
		settle(t, p)
		capture(fmt.Sprintf("flush %d", run+1))
	}
	if st := p.Stats(); st.Merges != 1 || p.Runs() != 2 {
		t.Fatalf("%d merges, %d runs; want the first four runs merged", st.Merges, p.Runs())
	}
	if err := p.PutCheckpoint("feed", 500); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	capture("close")
	checkGolden(t, "manifest-v1.golden", lines)
}
