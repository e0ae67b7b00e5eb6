package core

import (
	"fmt"
	"strings"
	"testing"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/cluster"
	"github.com/ideadb/idea/internal/hyracks"
)

// TestStorageWriterRefusesKeysItDoesNotOwn: a storage writer stores only
// keys its partition owns. A frame whose slab holds one record whose key
// routes to another partition is refused whole, with an error naming the
// key and the partition, and nothing of it is stored; so is a frame with
// no slab at all. The frames a collector routes are stored by the
// writers they are addressed to.
func TestStorageWriterRefusesKeysItDoesNotOwn(t *testing.T) {
	tuning := cluster.DefaultTuning()
	tuning.DispatchOverheadPerNode, tuning.InvokeOverheadPerNode = 0, 0
	c, err := cluster.New(2, tuning)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ds, err := c.CreateDataset("Owned", "", "k")
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumPartitions() != 2 {
		t.Fatalf("dataset has %d partitions, want 2", ds.NumPartitions())
	}

	// Route 64 records; a partition's slab may close its frame early.
	enc := newRecordEncoder(128, ds.NumPartitions(), "k", ds.Route)
	var sink frameSink
	enc.begin(64)
	for i := range 64 {
		if ok, err := enc.encode(fmt.Appendf(nil, `{"k":%d,"n":%d}`, i, i%7), nil, nil, &sink); !ok || err != nil {
			t.Fatalf("line %d rejected (%v)", i, err)
		}
	}
	if err := enc.flush(&sink); err != nil {
		t.Fatal(err)
	}
	var first [2]hyracks.Frame
	for _, fr := range sink.frames {
		if first[fr.Part].Enc == nil {
			first[fr.Part] = fr
		}
	}
	own, other := first[0], first[1]
	if own.N == 0 || other.N == 0 {
		t.Fatalf("routing left a partition empty: %d and %d records", own.N, other.N)
	}

	stored := func() int {
		t.Helper()
		n, err := ds.Len()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	stats := &feedCounters{}
	// Partition 0's slab, copied (its spare room is not the test's to
	// write), with one of partition 1's key, record pairs appended.
	foreign, _ := slabRecords(t, other)
	slab := append([]byte(nil), own.Enc...)
	slab = adm.AppendBinary(adm.AppendBinary(slab, foreign[0].Field("k")), foreign[0])
	mixed := hyracks.Frame{Enc: slab, N: own.N + 1}
	err = newStorageWriter(ds, 0, stats).Fn(nil, mixed)
	want := fmt.Sprintf("storage partition 0 was sent key %v, which partition 1 owns", foreign[0].Field("k"))
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("writing a misrouted record = %v, want an error containing %q", err, want)
	}
	// Partition 0's count with no slab, as a frame whose producer lost
	// its bytes would be.
	bare := hyracks.Frame{N: own.N}
	if err := newStorageWriter(ds, 0, stats).Fn(nil, bare); err == nil || !strings.Contains(err.Error(), "without a slab") {
		t.Fatalf("writing a frame with no slab = %v, want it refused", err)
	}
	if n := stored(); n != 0 {
		t.Fatalf("%d records of a refused frame were stored", n)
	}
	if got := stats.snapshot().Stored; got != 0 {
		t.Fatalf("Stored = %d after a refused frame, want 0", got)
	}

	// Each routed frame is stored by the writer it is addressed to.
	for _, fr := range sink.frames {
		if err := newStorageWriter(ds, fr.Part, stats).Fn(nil, fr); err != nil {
			t.Fatalf("partition %d refused its own frame: %v", fr.Part, err)
		}
	}
	if n := stored(); n != 64 {
		t.Fatalf("stored %d records, want 64", n)
	}
}
