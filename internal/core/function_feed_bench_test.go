package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"testing"

	"github.com/ideadb/idea/internal/cluster"
	"github.com/ideadb/idea/internal/workload"
)

// BenchmarkFunctionFeed runs whole dynamic feeds of 4 096 tweets over
// three nodes, one per kind of function input: enrichTweetQ1 calls only
// builtins, so the collector encodes its input into scratch rewound per
// record; enrichTweetQ4 makes a library call and nativeQ1 is a native
// UDF, so theirs go into append-only slabs. Each runs at the paper's 1X
// and 16X batch sizes. It reports records/s, the bytes the process
// allocated per record and the process's busy CPU per record (the Go
// runtime's estimate: GOMAXPROCS × wall time less idle time, as of the
// last collection, so each read follows one) while the feed ran, cluster
// and workload setup excluded. The simulated dispatch and invoke
// overheads are off, so what is left is the data path.
func BenchmarkFunctionFeed(b *testing.B) {
	const n, nodes = 4096, 3
	cpu := []metrics.Sample{{Name: "/cpu/classes/total:cpu-seconds"}, {Name: "/cpu/classes/idle:cpu-seconds"}}
	busy := func() float64 {
		runtime.GC()
		metrics.Read(cpu)
		return cpu[0].Value.Float64() - cpu[1].Value.Float64()
	}
	for _, fn := range []string{"enrichTweetQ1", "enrichTweetQ4", "nativeQ1"} {
		for _, batch := range []int{420, 16 * 420} {
			b.Run(fmt.Sprintf("%s/batch=%d", fn, batch), func(b *testing.B) {
				var allocated uint64
				var seconds float64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					tuning := cluster.DefaultTuning()
					tuning.DispatchOverheadPerNode, tuning.InvokeOverheadPerNode = 0, 0
					c, err := cluster.New(nodes, tuning)
					if err != nil {
						b.Fatal(err)
					}
					g, err := workload.Setup(c, 42, workload.Scaled(0.002))
					if err != nil {
						b.Fatal(err)
					}
					natives, err := workload.NativeUDFs(c)
					if err != nil {
						b.Fatal(err)
					}
					tweets := g.Tweets(0, n)
					cfg := Config{
						Name: "bench", Dataset: "EnrichedTweets", Function: fn, Natives: natives, BatchSize: batch,
						NewAdapter: func(int) (Adapter, error) { return &GeneratorAdapter{Records: tweets}, nil },
					}
					var before, after runtime.MemStats
					busy0 := busy()
					runtime.ReadMemStats(&before)
					b.StartTimer()
					f, err := Start(context.Background(), c, cfg)
					if err != nil {
						b.Fatal(err)
					}
					if err := f.Wait(); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					seconds += busy() - busy0
					runtime.ReadMemStats(&after)
					allocated += after.TotalAlloc - before.TotalAlloc
					if stored := f.Stats().Stored; stored != n {
						b.Fatalf("stored %d of %d", stored, n)
					}
					c.Close()
				}
				b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "records/s")
				b.ReportMetric(float64(allocated)/float64(n*b.N), "B/record")
				b.ReportMetric(seconds*1e6/float64(n*b.N), "cpu-µs/record")
			})
		}
	}
}
