package lsm

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// FS is the filesystem seam under the LSM layer: the WAL, run-file, and
// manifest writers perform every filesystem operation through it. A
// cluster with a data directory runs on NewOSFS, one without on a
// private MemFS — whose synced-prefix crash model and fault injection
// (fail after N writes, torn final write, failing fsync) also drive the
// crash-recovery suite.
//
// All paths are slash-separated and interpreted by the implementation
// (absolute OS paths for NewOSFS, an internal namespace for MemFS).
type FS interface {
	// Create opens name for reading and appending, truncating any
	// existing content.
	Create(name string) (File, error)
	// Open opens an existing file for reading and appending.
	Open(name string) (File, error)
	// Remove deletes a file. Open handles keep working (POSIX unlink
	// semantics).
	Remove(name string) error
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// List returns the names (not paths) of the files directly inside
	// dir, sorted.
	List(dir string) ([]string, error)
	// MkdirAll creates dir and its parents.
	MkdirAll(dir string) error
	// SyncDir makes dir's entries (creates, renames, removes) durable.
	SyncDir(dir string) error
}

// File is an append-only writable, randomly readable file handle.
// Write always appends at the current end; ReadAt is safe for
// concurrent use (run readers share one handle across query
// goroutines).
type File interface {
	Write(p []byte) (int, error)
	ReadAt(p []byte, off int64) (int, error)
	Size() (int64, error)
	// Truncate discards everything past size (recovery cuts torn WAL
	// tails with it).
	Truncate(size int64) error
	Sync() error
	Close() error
}

// readFileAll reads a whole file through the FS seam.
func readFileAll(fsys FS, name string) ([]byte, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil && size > 0 {
		return nil, err
	}
	return buf, nil
}

// --- OS implementation ---

// NewOSFS returns the production FS backed by the operating system.
func NewOSFS() FS { return osFS{} }

type osFS struct{}

func (osFS) Create(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &osFile{f: f}, nil
}

func (osFS) Open(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &osFile{f: f, size: st.Size()}, nil
}

func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }
func (osFS) MkdirAll(dir string) error            { return os.MkdirAll(dir, 0o755) }

func (osFS) List(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Some platforms cannot fsync a directory; that is a durability
	// gap of the platform, not an error the storage layer can act on.
	if err := d.Sync(); err != nil && !errors.Is(err, fs.ErrInvalid) {
		return err
	}
	return nil
}

// osFile serializes appends behind a mutex (WAL leader writes and
// flusher writes never share a file, but the contract is safer to
// enforce than to document) while leaving ReadAt lock-free.
type osFile struct {
	mu   sync.Mutex
	f    *os.File
	size int64
}

func (f *osFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.f.WriteAt(p, f.size)
	f.size += int64(n)
	return n, err
}

func (f *osFile) ReadAt(p []byte, off int64) (int, error) { return f.f.ReadAt(p, off) }

func (f *osFile) Size() (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size, nil
}

func (f *osFile) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.f.Truncate(size); err != nil {
		return err
	}
	f.size = size
	return nil
}

func (f *osFile) Sync() error  { return f.f.Sync() }
func (f *osFile) Close() error { return f.f.Close() }

// --- in-memory implementation with crash semantics ---

// ErrInjected is returned by MemFS operations killed by fault
// injection; the crash-recovery suite treats it as the moment the
// process died.
var ErrInjected = errors.New("lsm: injected fault")

// MemFS is an in-memory FS with a page-cache crash model: every file
// remembers the length up to which it has been fsynced, and Crash()
// produces the disk image a real machine would reboot to — each file
// cut back to its synced prefix. Renames model rename+parent-fsync as
// atomic and durable (the manifest protocol syncs the temp file before
// renaming over MANIFEST, so the window a real dir-sync closes is
// already covered there).
//
// Fault injection: FailWritesAfter arms a countdown across all Write
// calls — the failing write applies only a torn prefix, like a crash
// mid-write — and FailSyncs makes every Sync fail without advancing
// the synced length.
type MemFS struct {
	mu     sync.Mutex
	files  map[string]*memFile
	writes int // total successful Write calls, for choosing injection points

	writeBudget int // -1: unlimited; 0: next write fails
	tornBytes   int // bytes of the failing write that still land
	syncFail    bool
	readFail    atomic.Bool // not under mu: consulted on every ReadAt
}

// memFile holds its bytes in chunks of at most memChunk, so that an
// append never copies what the file already holds — a cluster without a
// data directory keeps its whole storage in these.
type memFile struct {
	mu     sync.Mutex
	chunks [][]byte // each memChunk long except the last
	size   int
	synced int
}

const memChunk = 64 << 10

// write appends p; the caller holds f.mu.
func (f *memFile) write(p []byte) {
	for len(p) > 0 {
		if f.size%memChunk == 0 {
			f.chunks = append(f.chunks, nil)
		}
		last := &f.chunks[len(f.chunks)-1]
		n := min(len(p), memChunk-len(*last))
		*last = append(*last, p[:n]...)
		f.size += n
		p = p[n:]
	}
}

// NewMemFS returns an empty in-memory filesystem with no faults armed.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile), writeBudget: -1}
}

// FailWritesAfter arms the write countdown: the next n Write calls
// succeed, then every later Write fails with ErrInjected after
// applying at most torn bytes of its buffer (0 = nothing lands: a
// clean kill; >0 = a torn final record).
func (m *MemFS) FailWritesAfter(n, torn int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.writeBudget = n
	m.tornBytes = torn
}

// FailSyncs makes every Sync call fail with ErrInjected (without
// making anything durable) when fail is true.
func (m *MemFS) FailSyncs(fail bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.syncFail = fail
}

// FailReads makes every ReadAt call fail with ErrInjected when fail is
// true — a device that stopped answering under files already open.
func (m *MemFS) FailReads(fail bool) { m.readFail.Store(fail) }

// Corrupt flips one bit of the byte at off in the named file — media
// corruption under a file that may already be open.
func (m *MemFS) Corrupt(name string, off int64) error {
	m.mu.Lock()
	f, ok := m.files[path.Clean(name)]
	m.mu.Unlock()
	if !ok {
		return &fs.PathError{Op: "corrupt", Path: name, Err: fs.ErrNotExist}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if off < 0 || off >= int64(f.size) {
		return &fs.PathError{Op: "corrupt", Path: name, Err: fs.ErrInvalid}
	}
	f.chunks[off/memChunk][off%memChunk] ^= 0x01
	return nil
}

// Writes reports the number of successful Write calls so far — a dry
// run measures it, and the crash suite then arms FailWritesAfter at
// points sampled from [0, Writes()).
func (m *MemFS) Writes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.writes
}

// Crash returns the filesystem a process would observe after a crash
// and reboot at this instant: file contents revert to their synced
// prefixes; files never synced come back empty. The receiver remains
// usable (a still-running "doomed" process keeps writing to it without
// affecting the crashed image).
func (m *MemFS) Crash() *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := NewMemFS()
	for name, f := range m.files {
		image := &memFile{}
		f.mu.Lock()
		for _, c := range f.chunks {
			image.write(c[:min(len(c), f.synced-image.size)])
		}
		f.mu.Unlock()
		image.synced = image.size
		out.files[name] = image
	}
	return out
}

func (m *MemFS) Create(name string) (File, error) {
	name = path.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	f := &memFile{}
	m.files[name] = f
	return &memHandle{fs: m, f: f}, nil
}

func (m *MemFS) Open(name string) (File, error) {
	name = path.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return &memHandle{fs: m, f: f}, nil
}

func (m *MemFS) Remove(name string) error {
	name = path.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

func (m *MemFS) Rename(oldname, newname string) error {
	oldname, newname = path.Clean(oldname), path.Clean(newname)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldname]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldname, Err: fs.ErrNotExist}
	}
	m.files[newname] = f
	delete(m.files, oldname)
	return nil
}

func (m *MemFS) List(dir string) ([]string, error) {
	dir = path.Clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for name := range m.files {
		if path.Dir(name) == dir {
			names = append(names, path.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *MemFS) MkdirAll(string) error { return nil }
func (m *MemFS) SyncDir(string) error  { return nil }

// chargeWrite applies the fault-injection countdown to one Write of n
// bytes, returning how many bytes land and whether the write fails.
func (m *MemFS) chargeWrite(n int) (applied int, failed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.writeBudget == 0 {
		return min(m.tornBytes, n), true
	}
	if m.writeBudget > 0 {
		m.writeBudget--
	}
	m.writes++
	return n, false
}

func (m *MemFS) syncFails() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.syncFail
}

type memHandle struct {
	fs     *MemFS
	f      *memFile
	closed bool
}

func (h *memHandle) Write(p []byte) (int, error) {
	applied, failed := h.fs.chargeWrite(len(p))
	h.f.mu.Lock()
	h.f.write(p[:applied])
	h.f.mu.Unlock()
	if failed {
		return applied, fmt.Errorf("write of %d bytes (%d applied): %w", len(p), applied, ErrInjected)
	}
	return applied, nil
}

func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	if h.fs.readFail.Load() {
		return 0, fmt.Errorf("read at %d: %w", off, ErrInjected)
	}
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	if off >= int64(h.f.size) {
		return 0, fmt.Errorf("read at %d past end %d: %w", off, h.f.size, fs.ErrInvalid)
	}
	n := 0
	for at := int(off); n < len(p) && at < h.f.size; at = int(off) + n {
		n += copy(p[n:], h.f.chunks[at/memChunk][at%memChunk:])
	}
	if n < len(p) {
		return n, fmt.Errorf("short read at %d: %w", off, fs.ErrInvalid)
	}
	return n, nil
}

func (h *memHandle) Size() (int64, error) {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	return int64(h.f.size), nil
}

func (h *memHandle) Truncate(size int64) error {
	f := h.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := int(size); n < f.size {
		f.chunks = f.chunks[:(n+memChunk-1)/memChunk]
		if tail := n % memChunk; tail != 0 {
			f.chunks[len(f.chunks)-1] = f.chunks[len(f.chunks)-1][:tail]
		}
		f.size, f.synced = n, min(f.synced, n)
	}
	return nil
}

func (h *memHandle) Sync() error {
	if h.fs.syncFails() {
		return fmt.Errorf("fsync: %w", ErrInjected)
	}
	h.f.mu.Lock()
	h.f.synced = h.f.size
	h.f.mu.Unlock()
	return nil
}

func (h *memHandle) Close() error {
	h.closed = true
	return nil
}

// joinPath joins FS path elements with forward slashes; the OS
// implementation accepts them on every supported platform
// (filepath.Join would also fold them, but storage paths stay
// slash-separated for MemFS compatibility).
func joinPath(elem ...string) string {
	joined := path.Join(elem...)
	if filepath.Separator != '/' && strings.Contains(joined, "\\") {
		joined = filepath.ToSlash(joined)
	}
	return joined
}
