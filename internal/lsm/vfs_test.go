package lsm

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestMemFSMatchesByteSlice drives one MemFS file and a plain byte slice
// through the same random writes, truncations and reads, sized to land
// on, before and across chunk boundaries: the chunked file must read
// like the contiguous one, and Crash must cut it to its synced prefix.
func TestMemFSMatchesByteSlice(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	fsys := NewMemFS()
	f, err := fsys.Create("d/f")
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	synced := 0
	sizes := []int{1, 100, memChunk - 1, memChunk, memChunk + 1, 3*memChunk + 17}
	for step := 0; step < 400; step++ {
		switch r.Intn(5) {
		case 0, 1:
			p := make([]byte, sizes[r.Intn(len(sizes))])
			r.Read(p)
			if n, err := f.Write(p); err != nil || n != len(p) {
				t.Fatalf("step %d: write %d bytes: n=%d err=%v", step, len(p), n, err)
			}
			want = append(want, p...)
		case 2:
			cuts := []int{len(want), len(want) / 2, len(want) / memChunk * memChunk, 0}
			size := cuts[r.Intn(len(cuts))]
			if r.Intn(4) != 0 { // mostly keep the file large
				size = len(want) - min(len(want), r.Intn(memChunk))
			}
			if err := f.Truncate(int64(size)); err != nil {
				t.Fatal(err)
			}
			want = want[:size]
			synced = min(synced, size)
		case 3:
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			synced = len(want)
		case 4:
			if len(want) == 0 {
				continue
			}
			off := r.Intn(len(want))
			p := make([]byte, min(len(want)-off, sizes[r.Intn(len(sizes))]))
			if n, err := f.ReadAt(p, int64(off)); err != nil || n != len(p) || !bytes.Equal(p, want[off:off+n]) {
				t.Fatalf("step %d: read %d at %d of %d: n=%d err=%v", step, len(p), off, len(want), n, err)
			}
			if _, err := f.ReadAt(make([]byte, len(want)-off+1), int64(off)); err == nil {
				t.Fatalf("step %d: read past the end at %d of %d succeeded", step, off, len(want))
			}
		}
		if size, _ := f.Size(); size != int64(len(want)) {
			t.Fatalf("step %d: size %d, want %d", step, size, len(want))
		}
	}
	for name, image := range map[string]struct {
		fs   FS
		want []byte
	}{"live": {fsys, want}, "crashed": {fsys.Crash(), want[:synced]}} {
		got, err := readFileAll(image.fs, "d/f")
		if err != nil || !bytes.Equal(got, image.want) {
			t.Errorf("%s image: %d bytes, want %d (err %v)", name, len(got), len(image.want), err)
		}
	}
}
