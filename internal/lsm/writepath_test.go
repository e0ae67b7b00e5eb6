package lsm

import (
	"errors"
	"testing"

	"github.com/ideadb/idea/internal/adm"
)

// partitionMutators lists the five storage entry points. Each writes
// something a reader could see had it been applied to a partition that
// holds only key 1.
var partitionMutators = []struct {
	name string
	run  func(p *Partition) error
}{
	{"Upsert", func(p *Partition) error { return p.Upsert(adm.Int(100), rec(100, "grp", adm.Int(1))) }},
	{"Insert", func(p *Partition) error { return p.Insert(adm.Int(101), rec(101, "grp", adm.Int(1))) }},
	{"Delete", func(p *Partition) error { _, err := p.Delete(adm.Int(1)); return err }},
	{"PutCheckpoint", func(p *Partition) error { return p.PutCheckpoint("feed", 9) }},
	{"UpsertBatch", func(p *Partition) error {
		return p.UpsertBatch([]adm.Value{adm.Int(102), adm.Int(1)}, []adm.Value{rec(102, "grp", adm.Int(1)), adm.Missing()})
	}},
}

// openModes opens a fresh partition on each filesystem.
var openModes = []struct {
	name string
	open func(t *testing.T) *Partition
}{
	{"memory", func(t *testing.T) *Partition { return memPartition(t, DefaultOptions()) }},
	{"durable", func(t *testing.T) *Partition {
		p, err := OpenPartition(NewOSFS(), t.TempDir(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}},
}

// TestWriteCommitRule: every mutator that returns nil has committed what
// it appended, so Committed never trails LSN on a quiescent partition.
func TestWriteCommitRule(t *testing.T) {
	for _, mode := range openModes {
		p := mode.open(t)
		for _, m := range partitionMutators {
			before := p.WAL().LSN()
			if err := m.run(p); err != nil {
				t.Fatalf("%s %s: %v", mode.name, m.name, err)
			}
			if lsn, committed := p.WAL().LSN(), committedLSN(p.WAL()); lsn == before || committed != lsn {
				t.Fatalf("%s %s: LSN %d → %d, Committed = %d; want an append and Committed == LSN", mode.name, m.name, before, lsn, committed)
			}
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWriteClosedPartition: after Close every mutator returns the same
// error and leaves no trace — no WAL append (so Epoch does not move), no
// memtable, index or checkpoint change. What Close stored is read back
// by reopening: the closed partition's run files are closed.
func TestWriteClosedPartition(t *testing.T) {
	for _, mode := range openModes {
		for _, m := range partitionMutators {
			t.Run(mode.name+"/"+m.name, func(t *testing.T) {
				p := mode.open(t)
				bt := NewBTreeIndex("byGrp", FieldKeyExtractor("grp"))
				if err := p.AttachIndex(bt); err != nil {
					t.Fatal(err)
				}
				if err := p.Upsert(adm.Int(1), rec(1, "grp", adm.Int(1))); err != nil {
					t.Fatal(err)
				}
				if err := p.PutCheckpoint("feed", 5); err != nil {
					t.Fatal(err)
				}
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}
				epoch, stats := p.Epoch(), p.Stats()

				if err := m.run(p); !errors.Is(err, errClosed) {
					t.Fatalf("write after Close = %v, want %v", err, errClosed)
				}
				if got := p.Epoch(); got != epoch {
					t.Errorf("Epoch moved %d → %d: the rejected write was logged", epoch, got)
				}
				if got := p.Stats(); got != stats {
					t.Errorf("Stats changed: %+v → %+v", stats, got)
				}
				if got := postingsOf(bt, adm.Int(1)); len(got) != 1 || got[0].IntVal() != 1 {
					t.Errorf("index postings for grp=1 = %v, want [1]", got)
				}
				if got := p.Checkpoint("feed"); got != 5 {
					t.Errorf("Checkpoint = %d, want 5", got)
				}

				rp, err := OpenPartition(p.fs, p.dir, p.opts)
				if err != nil {
					t.Fatal(err)
				}
				defer rp.Close()
				if _, ok, _ := rp.Get(adm.Int(1)); !ok {
					t.Error("key 1 vanished")
				}
				for _, k := range []int64{100, 101, 102} {
					if _, ok, _ := rp.Get(adm.Int(k)); ok {
						t.Errorf("key %d was applied", k)
					}
				}
				if got := rp.Checkpoint("feed"); got != 5 {
					t.Errorf("reopened Checkpoint = %d, want 5", got)
				}
			})
		}
	}
}
