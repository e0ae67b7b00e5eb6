package experiments

import (
	"fmt"

	"github.com/ideadb/idea/internal/workload"
)

// fig24Nodes is the paper's cluster-size sweep.
var fig24Nodes = []int{1, 2, 3, 4, 5, 6, 12, 18, 24}

// Fig24BasicIngestion reproduces Figure 24: 10M-tweet ingestion (no UDF)
// across cluster sizes, comparing the old coupled pipeline ("Static"),
// its one-adapter-per-node variant ("Balanced Static"), and the new
// framework at three batch sizes with one adapter or one per node.
func Fig24BasicIngestion(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	tweets := opts.tweetCount(10_000_000)
	table := &Table{
		Title:   fmt.Sprintf("Figure 24: basic ingestion speed-up (%d tweets)", tweets),
		Columns: []string{"nodes", "mode", "throughput (rec/s)"},
	}
	type mode struct {
		label    string
		batch    int
		static   bool
		balanced bool
	}
	modes := []mode{
		{"Static Ingestion", 0, true, false},
		{"Balanced Static Ingestion", 0, true, true},
		{"Dynamic Ingestion 1X", batch1X, false, false},
		{"Dynamic Ingestion 4X", batch4X, false, false},
		{"Dynamic Ingestion 16X", batch16X, false, false},
		{"Balanced Dynamic Ingestion 1X", batch1X, false, true},
		{"Balanced Dynamic Ingestion 4X", batch4X, false, true},
		{"Balanced Dynamic Ingestion 16X", batch16X, false, true},
	}
	for _, nodes := range opts.nodes(fig24Nodes) {
		opts.logf("fig24: %d node(s)", nodes)
		b, err := newBench(opts, nodes, workload.Scaled(opts.Scale))
		if err != nil {
			return nil, err
		}
		for _, m := range modes {
			res, err := b.run(runSpec{
				name:   fmt.Sprintf("fig24-n%d-%s", nodes, m.label),
				tweets: tweets, batch: m.batch,
				static: m.static, balanced: m.balanced,
			})
			if err != nil {
				return nil, err
			}
			table.Rows = append(table.Rows, []string{
				fmt.Sprint(nodes), m.label, fmtThroughput(res.throughput)})
		}
		b.cluster.Close()
	}
	return table, nil
}

// fig25UseCases are the first five use cases (Section 7.2).
var fig25UseCases = []string{
	"enrichTweetQ1", "enrichTweetQ2", "enrichTweetQ3", "enrichTweetQ4", "enrichTweetQ5",
}

// Fig25EnrichmentUDFs reproduces Figure 25: 1M-tweet enrichment on 6
// nodes across Q1–Q5, comparing static native enrichment against dynamic
// native and dynamic SQL++ at three batch sizes.
func Fig25EnrichmentUDFs(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	tweets := opts.tweetCount(1_000_000)
	nodes := opts.nodes([]int{6})[0]
	b, err := newBench(opts, nodes, workload.Scaled(opts.Scale))
	if err != nil {
		return nil, err
	}
	defer b.cluster.Close()
	table := &Table{
		Title:   fmt.Sprintf("Figure 25: %d tweets enrichment on %d nodes", tweets, nodes),
		Columns: []string{"use case", "mode", "throughput (rec/s)"},
	}
	for i, fn := range fig25UseCases {
		label := workload.UseCaseLabels[fn]
		opts.logf("fig25: %s", label)
		nativeFn := fmt.Sprintf("nativeQ%d", i+1)
		// Static enrichment with the native ("Java") UDF, state frozen.
		res, err := b.run(runSpec{
			name: "fig25-static-" + nativeFn, tweets: tweets,
			fn: nativeFn, static: true,
		})
		if err != nil {
			return nil, err
		}
		table.Rows = append(table.Rows, []string{label, "Static Enrichment w/ Java", fmtThroughput(res.throughput)})
		for _, bl := range batchLabels {
			res, err := b.run(runSpec{
				name:   fmt.Sprintf("fig25-dynjava-%s-%s", nativeFn, bl.label),
				tweets: tweets, fn: nativeFn, batch: bl.size,
			})
			if err != nil {
				return nil, err
			}
			table.Rows = append(table.Rows, []string{label,
				"Dynamic Enrichment w/ Java " + bl.label, fmtThroughput(res.throughput)})
		}
		for _, bl := range batchLabels {
			res, err := b.run(runSpec{
				name:   fmt.Sprintf("fig25-dynsql-%s-%s", fn, bl.label),
				tweets: tweets, fn: fn, batch: bl.size,
			})
			if err != nil {
				return nil, err
			}
			table.Rows = append(table.Rows, []string{label,
				"Dynamic Enrichment w/ SQL++ " + bl.label, fmtThroughput(res.throughput)})
		}
	}
	return table, nil
}

// rebuildNote explains the "rebuild every batch" columns of Figures 26
// and 27.
const rebuildNote = "rebuild every batch = the RecompilePerBatch ablation: the paper's behaviour " +
	"(enrichment state rebuilt by every computing job) plus per-batch plan compilation and full job " +
	"dispatch; the plain column reuses state for as long as the reference data is unchanged"

// Fig26RefreshPeriods reproduces Figure 26: the per-batch execution time
// (refresh period) of dynamic SQL++ enrichment under the three batch
// sizes. The reference data is static, so the predeployed pipeline
// builds its state once and the refresh period is what evaluating a
// batch costs; the "rebuild every batch" column keeps the paper's
// shape, where every job rebuilds the state.
func Fig26RefreshPeriods(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	tweets := opts.tweetCount(1_000_000)
	nodes := opts.nodes([]int{6})[0]
	b, err := newBench(opts, nodes, workload.Scaled(opts.Scale))
	if err != nil {
		return nil, err
	}
	defer b.cluster.Close()
	table := &Table{
		Title:   fmt.Sprintf("Figure 26: refresh periods, %d tweets on %d nodes", tweets, nodes),
		Columns: []string{"use case", "batch", "refresh period", "refresh period (rebuild every batch)", "invocations"},
		Notes:   []string{rebuildNote},
	}
	for _, fn := range fig25UseCases {
		label := workload.UseCaseLabels[fn]
		opts.logf("fig26: %s", label)
		for _, bl := range batchLabels {
			spec := runSpec{
				name:   fmt.Sprintf("fig26-%s-%s", fn, bl.label),
				tweets: tweets, fn: fn, batch: bl.size,
			}
			res, err := b.run(spec)
			if err != nil {
				return nil, err
			}
			spec.name += "-rebuild"
			spec.recomp = true
			rebuild, err := b.run(spec)
			if err != nil {
				return nil, err
			}
			table.Rows = append(table.Rows, []string{label, bl.label,
				fmtDuration(res.refresh), fmtDuration(rebuild.refresh), fmt.Sprint(res.invocations)})
		}
	}
	return table, nil
}

// fig27Rates is the paper's update-rate sweep (records/second).
var fig27Rates = []int{0, 1, 10, 50, 100, 200, 400}

// Fig27UpdateRates reproduces Figure 27: enrichment throughput while a
// client upserts the reference data at increasing rates (100K tweets, 6
// nodes). Updates activate the LSM memtables and contend with the
// computing jobs' reads; the index-join use case degrades most at high
// rates because it probes storage throughout each job. With state
// reuse only the batches that follow a reference write refresh their
// state — a hash table patched from those writes, anything else rebuilt
// — so the "rebuild every batch" column shows the paper's shape beside
// it, and the access builds and patches columns show the work.
//
// The paper's update rates (1..400/s) are ~half its enrichment
// throughput (~800 rec/s on 2009 hardware). This in-process build is
// orders of magnitude faster, so to preserve the operative variable —
// the update-to-ingest ratio — the rates are scaled by 1/scale when
// running below paper scale; the table reports the effective rates.
func Fig27UpdateRates(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	tweets := opts.tweetCount(1_000_000)
	nodes := opts.nodes([]int{6})[0]
	rateScale := 1.0
	if opts.Scale < 1 {
		rateScale = 1.0 / opts.Scale
		if rateScale > 200 {
			rateScale = 200
		}
	}
	b, err := newBench(opts, nodes, workload.Scaled(opts.Scale))
	if err != nil {
		return nil, err
	}
	defer b.cluster.Close()
	table := &Table{
		Title: fmt.Sprintf("Figure 27: reference-data updates, %d tweets on %d nodes", tweets, nodes),
		Columns: []string{"use case", "update rate (rec/s)", "throughput (rec/s)", "throughput, rebuild every batch (rec/s)",
			"access builds", "access patches"},
		Notes: []string{fmt.Sprintf(
			"paper rates ×%.0f to preserve the update-to-ingest ratio at this scale", rateScale), rebuildNote,
			"access builds / patches = enrichment structures the plain run built / patched in place from the " +
				"reference writes since the previous batch (the rebuild-every-batch run builds every one, every batch)"},
	}
	for _, fn := range fig25UseCases {
		label := workload.UseCaseLabels[fn]
		opts.logf("fig27: %s", label)
		refDS := workload.ReferenceDatasets[fn][0]
		for _, rate := range fig27Rates {
			eff := int(float64(rate) * rateScale)
			spec := runSpec{
				name:   fmt.Sprintf("fig27-%s-r%d", fn, eff),
				tweets: tweets, fn: fn, batch: batch16X,
			}
			spec.updates.dataset = refDS
			spec.updates.rate = eff
			res, err := b.run(spec)
			if err != nil {
				return nil, err
			}
			spec.name += "-rebuild"
			spec.recomp = true
			rebuild, err := b.run(spec)
			if err != nil {
				return nil, err
			}
			table.Rows = append(table.Rows, []string{label, fmt.Sprint(eff),
				fmtThroughput(res.throughput), fmtThroughput(rebuild.throughput),
				fmt.Sprint(res.accessBuilds), fmt.Sprint(res.accessPatches)})
		}
	}
	return table, nil
}

// Fig28RefScaleOut reproduces Figure 28: reference data grown 2X/3X/4X
// together with the cluster (12/18/24 nodes); throughput should stay
// roughly level (slight decline from larger-cluster overhead).
func Fig28RefScaleOut(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	tweets := opts.tweetCount(1_000_000)
	nodeSweep := opts.nodes([]int{6, 12, 18, 24})
	table := &Table{
		Title:   fmt.Sprintf("Figure 28: reference-data scale-out (%d tweets, batch 16X)", tweets),
		Columns: []string{"nodes", "ref scale", "use case", "throughput (rec/s)"},
	}
	for i, nodes := range nodeSweep {
		mult := i + 1
		opts.logf("fig28: %d nodes, %dX reference data", nodes, mult)
		b, err := newBench(opts, nodes, workload.Scaled(opts.Scale).Multiply(mult))
		if err != nil {
			return nil, err
		}
		for _, fn := range fig25UseCases {
			res, err := b.run(runSpec{
				name:   fmt.Sprintf("fig28-n%d-%s", nodes, fn),
				tweets: tweets, fn: fn, batch: batch16X,
			})
			if err != nil {
				return nil, err
			}
			table.Rows = append(table.Rows, []string{
				fmt.Sprint(nodes), fmt.Sprintf("%dX", mult),
				workload.UseCaseLabels[fn], fmtThroughput(res.throughput)})
		}
		b.cluster.Close()
	}
	return table, nil
}

// fig29UseCases are the complex use cases (Section 7.4.2).
var fig29UseCases = []string{
	"enrichTweetQ5", "enrichTweetQ6", "enrichTweetQ7", "enrichTweetQ8",
}

// Fig29Complexity reproduces Figure 29: the complex enrichment UDFs
// (Nearby Monuments, Suspicious Names, Tweet Context, Worrisome Tweets)
// under the three batch sizes on 6 nodes.
func Fig29Complexity(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	tweets := opts.tweetCount(100_000)
	nodes := opts.nodes([]int{6})[0]
	b, err := newBench(opts, nodes, workload.Scaled(opts.Scale))
	if err != nil {
		return nil, err
	}
	defer b.cluster.Close()
	table := &Table{
		Title:   fmt.Sprintf("Figure 29: UDF complexity, %d tweets on %d nodes", tweets, nodes),
		Columns: []string{"use case", "batch", "throughput (rec/s)"},
	}
	for _, fn := range fig29UseCases {
		label := workload.UseCaseLabels[fn]
		opts.logf("fig29: %s", label)
		for _, bl := range batchLabels {
			res, err := b.run(runSpec{
				name:   fmt.Sprintf("fig29-%s-%s", fn, bl.label),
				tweets: tweets, fn: fn, batch: bl.size,
			})
			if err != nil {
				return nil, err
			}
			table.Rows = append(table.Rows, []string{label, bl.label, fmtThroughput(res.throughput)})
		}
	}
	return table, nil
}

// Fig30SpeedUp reproduces Figure 30: per-UDF speed-up from 6 to 24 nodes
// for every batch size.
func Fig30SpeedUp(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	tweets := opts.tweetCount(100_000)
	pair := opts.nodes([]int{6, 24})
	if len(pair) != 2 {
		return nil, fmt.Errorf("fig30 needs exactly two node counts, got %v", pair)
	}
	small, large := pair[0], pair[1]

	type cell struct{ smallTput, largeTput float64 }
	results := make(map[string]map[string]*cell) // udf → batch label

	for _, nodes := range []int{small, large} {
		opts.logf("fig30: measuring on %d nodes", nodes)
		b, err := newBench(opts, nodes, workload.Scaled(opts.Scale))
		if err != nil {
			return nil, err
		}
		for _, fn := range workload.UDFNames {
			if results[fn] == nil {
				results[fn] = make(map[string]*cell)
			}
			for _, bl := range batchLabels {
				res, err := b.run(runSpec{
					name:   fmt.Sprintf("fig30-n%d-%s-%s", nodes, fn, bl.label),
					tweets: tweets, fn: fn, batch: bl.size,
				})
				if err != nil {
					return nil, err
				}
				if results[fn][bl.label] == nil {
					results[fn][bl.label] = &cell{}
				}
				if nodes == small {
					results[fn][bl.label].smallTput = res.throughput
				} else {
					results[fn][bl.label].largeTput = res.throughput
				}
			}
		}
		b.cluster.Close()
	}
	table := &Table{
		Title: fmt.Sprintf("Figure 30: %d vs %d node speed-up (%d tweets)",
			large, small, tweets),
		Columns: []string{"use case", "batch", "speed-up"},
		Notes:   []string{fmt.Sprintf("ideal speed-up = %.1fx", float64(large)/float64(small))},
	}
	for _, fn := range workload.UDFNames {
		for _, bl := range batchLabels {
			c := results[fn][bl.label]
			table.Rows = append(table.Rows, []string{
				workload.UseCaseLabels[fn], bl.label,
				fmtSpeedup(c.largeTput / c.smallTput)})
		}
	}
	return table, nil
}

// Fig31ComplexScaleOut reproduces Figure 31(a,b): throughput and
// speed-up of the four most complex UDFs (plus the no-index Naive Nearby
// Monuments) over growing clusters at batch 16X.
func Fig31ComplexScaleOut(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	tweets := opts.tweetCount(100_000)
	nodeSweep := opts.nodes([]int{6, 12, 18, 24})
	type variant struct {
		label string
		fn    string
		naive bool
	}
	variants := []variant{
		{"Nearby Monuments", "enrichTweetQ5", false},
		{"Naive Nearby Monuments", "enrichTweetQ5", true},
		{"Suspicious Names", "enrichTweetQ6", false},
		{"Tweet Context", "enrichTweetQ7", false},
		{"Worrisome Tweets", "enrichTweetQ8", false},
	}
	tput := make(map[string]map[int]float64)
	for _, nodes := range nodeSweep {
		opts.logf("fig31: %d nodes", nodes)
		b, err := newBench(opts, nodes, workload.Scaled(opts.Scale))
		if err != nil {
			return nil, err
		}
		for _, v := range variants {
			res, err := b.run(runSpec{
				name:   fmt.Sprintf("fig31-n%d-%s", nodes, v.label),
				tweets: tweets, fn: v.fn, batch: batch16X, naive: v.naive,
			})
			if err != nil {
				return nil, err
			}
			if tput[v.label] == nil {
				tput[v.label] = make(map[int]float64)
			}
			tput[v.label][nodes] = res.throughput
		}
		b.cluster.Close()
	}
	table := &Table{
		Title:   fmt.Sprintf("Figure 31: complex-UDF scale-out (%d tweets, batch 16X)", tweets),
		Columns: []string{"use case", "nodes", "throughput (rec/s)", "speed-up vs smallest"},
	}
	base := nodeSweep[0]
	for _, v := range variants {
		for _, nodes := range nodeSweep {
			table.Rows = append(table.Rows, []string{
				v.label, fmt.Sprint(nodes),
				fmtThroughput(tput[v.label][nodes]),
				fmtSpeedup(tput[v.label][nodes] / tput[v.label][base])})
		}
	}
	return table, nil
}
