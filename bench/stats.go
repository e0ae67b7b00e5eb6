package main

import (
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of sorted by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// tailQuantile picks the highest of p99, p95, p90 that still has at
// least ten samples beyond it, falling back to p90 for small samples.
// The metric built on it is named "tail" so the name stays truthful
// whichever percentile the sample supports; the choice is reported
// beside it.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.95} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.90
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocBytes is the process's cumulative heap allocation in bytes.
func allocBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// liveHeapMB collects garbage — twice, so that what sync.Pools held
// goes too — and returns what the process still holds on the Go heap,
// in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// peakRSSMB is the largest resident set the process has had, in MiB
// (Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// ioCounters are the process's cumulative bytes passed to read and
// write system calls — files and sockets alike, whatever the
// filesystem and whether or not the page cache absorbed them.
type ioCounters struct{ rchar, wchar int64 }

func procIO() (ioCounters, error) {
	var c ioCounters
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return c, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		name, val, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(val, 10, 64)
		switch name {
		case "rchar":
			c.rchar = n
		case "wchar":
			c.wchar = n
		}
	}
	return c, nil
}

// allocs is the process's cumulative heap allocation count.
func allocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// Filesystem magic numbers from statfs(2), for the environment block.
var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x2FC12FC1: "zfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}

// gitCommit reads the checkout's HEAD without running git; the driver's
// checkout is not a repository, so "unknown" is an expected answer.
func gitCommit() string {
	for _, root := range []string{".", ".."} {
		head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(head))
		if len(s) > 5 && s[:5] == "ref: " {
			ref, err := os.ReadFile(filepath.Join(root, ".git", s[5:]))
			if err != nil {
				return s[5:]
			}
			return strings.TrimSpace(string(ref))
		}
		return s
	}
	return "unknown"
}
