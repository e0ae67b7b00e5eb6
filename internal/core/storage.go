package core

import (
	"fmt"

	"github.com/ideadb/idea/internal/hyracks"
	"github.com/ideadb/idea/internal/lsm"
)

// newStorageWriter returns the frame-granular LSM storage writer of
// partition p of ds, shared by the feed storage job, the fused-insert
// ablation, and the static pipeline (connectStorage). Every frame that
// reaches it was routed — by a collector, a static adapter-parser or a
// static evaluator (frameRouter) — and carries its slab and the count of
// records in it (Frame.Enc, N): key, record, key, record, …, the payload
// p's WAL logs. The frame is stored from that slab alone, as one
// Dataset.UpsertFrame — one WAL append and group commit, one partition
// lock acquisition, one sorted bulk insert into the memtable, and
// grouped secondary-index maintenance — instead of paying each of those
// per record. The partition reads each key off the slab and refuses the
// whole frame, before any of it is written, if one is not a key p owns:
// that is the one check of the producer's routing; the exchange forwards
// by the partition a frame names (Frame.Part) and hashes nothing. A
// frame of records with no slab fails the job.
//
// The writer is the frame's final consumer: storage retains the slab —
// and reuses it for a later frame once its memtable is flushed unread
// (lsm.Dataset.Slab) — and nothing else of the frame is pooled. Each
// stored frame's count is added to stats' Stored.
func newStorageWriter(ds *lsm.Dataset, p int, stats *feedCounters) *hyracks.SinkPipe {
	return &hyracks.SinkPipe{
		Fn: func(_ *hyracks.TaskContext, fr hyracks.Frame) error {
			if len(fr.Raw) > 0 {
				return fmt.Errorf("core: raw-lane frame reached storage writer; parse records first")
			}
			if fr.Enc == nil && fr.Len() > 0 {
				return fmt.Errorf("core: frame without a slab reached storage writer; route records first")
			}
			if err := ds.UpsertFrame(p, fr.Enc); err != nil {
				return err
			}
			stats.add(&stats.st.Stored, int64(fr.N))
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
