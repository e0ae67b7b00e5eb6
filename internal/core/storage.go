package core

import (
	"fmt"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/hyracks"
	"github.com/ideadb/idea/internal/lsm"
)

// newStorageWriter returns the frame-granular LSM storage writer shared
// by the feed storage job, the fused-insert ablation, and the static
// pipeline (connectStorage). Each incoming frame becomes one storage
// operation: the primary keys are extracted in a single pass into a
// pooled scratch and the whole frame goes through Partition.UpsertFrame
// — one WAL append and group commit, one partition lock acquisition, one
// sorted bulk insert into the memtable, and grouped secondary-index
// maintenance — instead of paying each of those per record. Every frame
// that reaches it was routed — by a collector, a static adapter-parser
// or a static evaluator — and carries its slab (Frame.Enc), which the
// partition logs and keeps as it is.
//
// The writer is the frame's final consumer: storage retains the
// records (and a routed frame's slab), the spine recycles. Each stored
// frame is counted in stats' Stored.
func newStorageWriter(part *lsm.Partition, pk string, stats *feedCounters) *hyracks.SinkPipe {
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
// ds — and connects from to them through the storage exchange. Every frame from must be routed
// (frameRouter): the exchange forwards it whole to the writer its
// records hash to.
func connectStorage(spec *hyracks.JobSpec, from int, name string, ds *lsm.Dataset, stats *feedCounters) {
	pk := ds.PrimaryKey()
	writerOp := spec.AddOperator(&hyracks.Descriptor{
		Name:        name,
		Parallelism: ds.NumPartitions(),
		NewPipe: func(p int) (hyracks.Pipe, error) {
			return newStorageWriter(ds.Partition(p), pk, stats), nil
		},
	})
	spec.Connect(from, writerOp, hyracks.HashPartition, keyHash(pk))
}

// keyHash is the storage exchange's key function: the record's primary
// key through adm.Hash. The hash connector takes it modulo the writer
// count, the dataset's partition count, which is what Dataset.Route
// computes from the key — so every frame a collector, adapter-parser
// or evaluator routes is single-target here and forwarded whole.
func keyHash(pk string) func(adm.Value) uint64 {
	return func(rec adm.Value) uint64 { return adm.Hash(rec.Field(pk)) }
}
