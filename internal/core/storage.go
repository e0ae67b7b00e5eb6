package core

import (
	"fmt"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/hyracks"
	"github.com/ideadb/idea/internal/lsm"
)

// newStorageWriter returns the frame-granular LSM storage writer of
// partition p of ds, shared by the feed storage job, the fused-insert
// ablation, and the static pipeline (connectStorage). Each incoming frame
// becomes one storage operation: the primary keys are extracted in a
// single pass into a pooled scratch and the whole frame goes through
// Partition.UpsertFrame — one WAL append and group commit, one partition
// lock acquisition, one sorted bulk insert into the memtable, and grouped
// secondary-index maintenance — instead of paying each of those per
// record. Every frame that reaches it was routed — by a collector, a
// static adapter-parser or a static evaluator — and carries its slab
// (Frame.Enc), which the partition logs and keeps as it is.
//
// The writer stores only keys p owns: a frame holding a record that
// Dataset.Route sends elsewhere fails before any of it is written. That
// is the one check of the producer's routing; the exchange forwards by
// the partition a frame names (Frame.Part) and hashes nothing.
//
// The writer is the frame's final consumer: storage retains the
// records (and a routed frame's slab), the spine recycles. Each stored
// frame is counted in stats' Stored.
func newStorageWriter(ds *lsm.Dataset, p int, stats *feedCounters) *hyracks.SinkPipe {
	part, pk := ds.Partition(p), ds.PrimaryKey()
	// The key scratch persists across frames: a pipe instance is driven
	// by one goroutine, so no pooling (or locking) is needed and a
	// steady frame stream extracts keys with zero allocations.
	var keys []adm.Value
	return &hyracks.SinkPipe{
		Fn: func(_ *hyracks.TaskContext, fr hyracks.Frame) error {
			if len(fr.Raw) > 0 {
				return fmt.Errorf("core: raw-lane frame reached storage writer; parse records first")
			}
			if len(fr.Records) == 0 {
				hyracks.RecycleFrame(fr)
				return nil
			}
			if cap(keys) < len(fr.Records) {
				keys = make([]adm.Value, 0, max(len(fr.Records), 256))
			}
			keys = keys[:0]
			for _, rec := range fr.Records {
				key := rec.Field(pk)
				if key.IsUnknown() {
					return fmt.Errorf("core: record missing primary key %q", pk)
				}
				if owner := ds.Route(key); owner != p {
					return fmt.Errorf("core: storage partition %d was sent key %v, which partition %d owns", p, key, owner)
				}
				keys = append(keys, key)
			}
			if err := part.UpsertFrame(keys, fr.Records, fr.Enc); err != nil {
				return err
			}
			clear(keys) // key headers were copied into the memtable
			stats.add(&stats.st.Stored, int64(len(fr.Records)))
			hyracks.RecycleFrame(fr)
			return nil
		},
	}
}

// connectStorage adds the storage writers to spec — one per partition of
// ds — and connects from to them through the storage exchange, which
// forwards each frame whole to the writer its Part names. Every frame
// from must be routed (frameRouter).
func connectStorage(spec *hyracks.JobSpec, from int, name string, ds *lsm.Dataset, stats *feedCounters) {
	writerOp := spec.AddOperator(&hyracks.Descriptor{
		Name:        name,
		Parallelism: ds.NumPartitions(),
		NewPipe: func(p int) (hyracks.Pipe, error) {
			return newStorageWriter(ds, p, stats), nil
		},
	})
	spec.Connect(from, writerOp, hyracks.Partitioned, nil)
}
