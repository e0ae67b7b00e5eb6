package idea

// One benchmark per table/figure in the paper's evaluation (Section 7),
// each wrapping the corresponding experiment runner at a reduced scale so
// `go test -bench=.` finishes in minutes. For paper-shaped sweeps and
// bigger scales use `go run ./cmd/ideabench -experiment <id> -scale ...`;
// PERFORMANCE.md records measured hot-path results and compares the
// paper's findings.
//
// Scale knobs: IDEA_BENCH_SCALE and IDEA_BENCH_TWEETS environment
// variables override the defaults.

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"github.com/ideadb/idea/internal/cluster"
	"github.com/ideadb/idea/internal/experiments"
)

func benchOptions(b *testing.B) experiments.Options {
	b.Helper()
	tuning := cluster.DefaultTuning()
	tuning.DispatchOverheadPerNode = 20_000 // 20µs
	tuning.InvokeOverheadPerNode = 5_000    // 5µs
	opts := experiments.Options{
		Scale:  0.001,
		Tweets: 600,
		Seed:   2019,
		Tuning: &tuning,
	}
	if s := os.Getenv("IDEA_BENCH_SCALE"); s != "" {
		if f, err := strconv.ParseFloat(s, 64); err == nil && f > 0 {
			opts.Scale = f
		}
	}
	if s := os.Getenv("IDEA_BENCH_TWEETS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			opts.Tweets = n
		}
	}
	return opts
}

// runExperiment executes one experiment per benchmark iteration and
// reports the mean throughput of its cells as a custom metric.
func runExperiment(b *testing.B, name string, opts experiments.Options) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table, err := experiments.Run(name, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) == 0 {
			b.Fatalf("%s produced no rows", name)
		}
		if i == 0 && testing.Verbose() {
			table.Print(os.Stdout)
		}
	}
}

// BenchmarkFig24BasicIngestion — Figure 24: basic ingestion speed-up
// (static vs balanced-static vs dynamic at three batch sizes).
func BenchmarkFig24BasicIngestion(b *testing.B) {
	opts := benchOptions(b)
	opts.Nodes = []int{1, 4}
	runExperiment(b, "fig24", opts)
}

// BenchmarkFig25EnrichmentUDFs — Figure 25: Q1–Q5 enrichment throughput,
// static Java vs dynamic Java vs dynamic SQL++.
func BenchmarkFig25EnrichmentUDFs(b *testing.B) {
	opts := benchOptions(b)
	opts.Nodes = []int{3}
	runExperiment(b, "fig25", opts)
}

// BenchmarkFig26RefreshPeriods — Figure 26: computing-job refresh
// periods under the three batch sizes.
func BenchmarkFig26RefreshPeriods(b *testing.B) {
	opts := benchOptions(b)
	opts.Nodes = []int{3}
	runExperiment(b, "fig26", opts)
}

// BenchmarkFig27UpdateRates — Figure 27: throughput under reference-data
// update rates 0..400 records/second.
func BenchmarkFig27UpdateRates(b *testing.B) {
	opts := benchOptions(b)
	opts.Nodes = []int{3}
	opts.Tweets = 400
	runExperiment(b, "fig27", opts)
}

// BenchmarkFig28RefScaleOut — Figure 28: reference data scaled with the
// cluster.
func BenchmarkFig28RefScaleOut(b *testing.B) {
	opts := benchOptions(b)
	opts.Nodes = []int{2, 4}
	runExperiment(b, "fig28", opts)
}

// BenchmarkFig29Complexity — Figure 29: the four complex UDFs across
// batch sizes.
func BenchmarkFig29Complexity(b *testing.B) {
	opts := benchOptions(b)
	opts.Nodes = []int{3}
	opts.Tweets = 300
	runExperiment(b, "fig29", opts)
}

// BenchmarkFig30SpeedUp — Figure 30: speed-up of every UDF between a
// small and a large cluster at three batch sizes.
func BenchmarkFig30SpeedUp(b *testing.B) {
	opts := benchOptions(b)
	opts.Nodes = []int{2, 4}
	opts.Tweets = 300
	runExperiment(b, "fig30", opts)
}

// BenchmarkFig31ComplexScaleOut — Figure 31(a,b): complex-UDF throughput
// and speed-up over growing clusters, including Naive Nearby Monuments.
func BenchmarkFig31ComplexScaleOut(b *testing.B) {
	opts := benchOptions(b)
	opts.Nodes = []int{2, 4}
	opts.Tweets = 300
	runExperiment(b, "fig31", opts)
}

// BenchmarkAblationStaticVsDynamic — docs/ARCHITECTURE.md ablation 1: frozen vs
// per-batch-refreshed enrichment state.
func BenchmarkAblationStaticVsDynamic(b *testing.B) {
	opts := benchOptions(b)
	opts.Nodes = []int{3}
	runExperiment(b, "ablation-static", opts)
}

// BenchmarkAblationPredeployed — docs/ARCHITECTURE.md ablation 2: predeployed jobs
// vs recompile-per-batch.
func BenchmarkAblationPredeployed(b *testing.B) {
	opts := benchOptions(b)
	opts.Nodes = []int{3}
	runExperiment(b, "ablation-predeploy", opts)
}

// BenchmarkAblationDecoupled — docs/ARCHITECTURE.md ablation 3: decoupled pipeline
// vs fused insert job.
func BenchmarkAblationDecoupled(b *testing.B) {
	opts := benchOptions(b)
	opts.Nodes = []int{3}
	runExperiment(b, "ablation-decoupled", opts)
}

// BenchmarkAblationQueueCapacity — docs/ARCHITECTURE.md ablation 4: partition-
// holder queue bounds.
func BenchmarkAblationQueueCapacity(b *testing.B) {
	opts := benchOptions(b)
	opts.Nodes = []int{3}
	runExperiment(b, "ablation-queue", opts)
}

// BenchmarkFeedThroughputNoUDF measures raw end-to-end pipeline
// throughput through the public API (records/second reported as a
// custom metric).
func BenchmarkFeedThroughputNoUDF(b *testing.B) {
	const n = 20_000
	records := make([][]byte, n)
	for i := range records {
		records[i] = []byte(fmt.Sprintf(`{"id":%d,"text":"benchmark tweet with some padding text"}`, i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := NewCluster(Config{Nodes: 4})
		if err != nil {
			b.Fatal(err)
		}
		c.MustExecute(`
			CREATE TYPE T AS OPEN { id: int64 };
			CREATE DATASET D(T) PRIMARY KEY id;
			CREATE FEED F WITH { "adapter-name": "channel_adapter", "batch-size": 6720 };
			CONNECT FEED F TO DATASET D;
		`)
		if err := c.SetFeedSource("F", func(int) (FeedSource, error) {
			return &RecordsSource{Records: records}, nil
		}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		feeds := c.MustExecute(`START FEED F;`).Feeds()
		if err := feeds[0].Wait(); err != nil {
			b.Fatal(err)
		}
		total += n
		b.StopTimer()
		c.Close() // every partition owns a flusher goroutine
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "records/s")
}
