package main

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ideadb/idea/internal/lsm"
)

// countFS wraps the storage layer's filesystem seam and counts what
// reaches the device: bytes written (WAL, flushes and compaction
// rewrites alike — the numerator of write amplification), fsyncs, and
// how long each WAL fsync took.
type countFS struct {
	lsm.FS
	writeBytes atomic.Int64
	syncs      atomic.Int64

	mu        sync.Mutex
	walSyncMS []float64
}

func (c *countFS) wrap(f lsm.File, err error, name string) (lsm.File, error) {
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c, wal: strings.Contains(name, "wal-")}, nil
}

func (c *countFS) Create(name string) (lsm.File, error) {
	f, err := c.FS.Create(name)
	return c.wrap(f, err, name)
}

func (c *countFS) Open(name string) (lsm.File, error) {
	f, err := c.FS.Open(name)
	return c.wrap(f, err, name)
}

type countFile struct {
	lsm.File
	fs  *countFS
	wal bool
}

func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.writeBytes.Add(int64(n))
	return n, err
}

func (f *countFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.syncs.Add(1)
	if f.wal {
		d := ms(time.Since(start))
		f.fs.mu.Lock()
		f.fs.walSyncMS = append(f.fs.walSyncMS, d)
		f.fs.mu.Unlock()
	}
	return err
}
