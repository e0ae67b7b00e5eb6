package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/cluster"
	"github.com/ideadb/idea/internal/core"
	"github.com/ideadb/idea/internal/query"
	"github.com/ideadb/idea/internal/workload"
)

// ApproachesComparison reproduces Section 4.2's narrative comparison of
// the three ways to get enriched data into a dataset:
//
//  1. an external program issuing one INSERT statement per record (each
//     paying full statement dispatch),
//  2. a plain feed into a staging dataset plus an external program
//     repeatedly issuing INSERT ... SELECT batches that apply the UDF,
//  3. the paper's answer — the UDF attached directly to the feed.
//
// The paper argues 1 cannot scale, 2 double-materializes, and 3 wins;
// this experiment measures all three on the same workload (Q1).
func ApproachesComparison(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	tweets := opts.tweetCount(100_000)
	nodes := opts.nodes([]int{6})[0]
	b, err := newBench(opts, nodes, workload.Scaled(opts.Scale))
	if err != nil {
		return nil, err
	}
	defer b.cluster.Close()
	table := &Table{
		Title:   fmt.Sprintf("Section 4.2: ingestion approaches (%d tweets, Q1, %d nodes)", tweets, nodes),
		Columns: []string{"approach", "throughput (rec/s)", "bytes written"},
		Notes: []string{
			"approach 2 materializes every record twice (staging + enriched), the paper's Section 4.2.2 objection",
		},
	}

	// Approach 1: external program, one INSERT statement per record.
	if err := b.resetTarget("EnrichedTweets"); err != nil {
		return nil, err
	}
	fn, _ := b.cluster.Function("enrichTweetQ1")
	perRecordTweets := tweets / 10 // it is slow by construction; sample it
	if perRecordTweets < 50 {
		perRecordTweets = 50
	}
	raw := b.gen.Tweets(0, perRecordTweets)
	target, _ := b.cluster.Dataset("EnrichedTweets")
	dispatch := b.cluster.Tuning().DispatchOverheadPerNode * time.Duration(nodes)
	start := time.Now()
	for _, line := range raw {
		rec, err := adm.ParseJSON(line)
		if err != nil {
			return nil, err
		}
		rec, err = workload.TweetType().Validate(rec)
		if err != nil {
			return nil, err
		}
		// Every statement is compiled and dispatched like any other
		// query, which is exactly why this approach cannot keep up.
		time.Sleep(dispatch)
		out, err := query.Call(b.cluster, fn, []adm.Value{rec})
		if err != nil {
			return nil, err
		}
		enriched := out.Index(0)
		if err := target.Upsert(enriched); err != nil {
			return nil, err
		}
	}
	tput1 := float64(perRecordTweets) / time.Since(start).Seconds()
	table.Rows = append(table.Rows, []string{
		"1: external program, INSERT per record",
		fmtThroughput(tput1),
		fmt.Sprintf("%d records × 1", perRecordTweets)})
	b.opts.logf("    approach-1 %10.0f rec/s (on a %d-record sample)", tput1, perRecordTweets)

	// Approach 2: plain feed into a staging dataset, then batched
	// INSERT ... SELECT with the UDF (data written twice).
	if err := b.resetTarget("EnrichedTweets"); err != nil {
		return nil, err
	}
	res2, err := b.run(runSpec{name: "approach2-stage", tweets: tweets, batch: batch16X})
	if err != nil {
		return nil, err
	}
	staged, _ := b.cluster.Dataset("Tweets")
	target, _ = b.cluster.Dataset("EnrichedTweets")
	plan, err := query.CompileEnrich(fn.Name, fn.Params, fn.Body, b.cluster, query.PlanOptions{})
	if err != nil {
		return nil, err
	}
	stageStart := time.Now()
	var batchRecs []adm.Value
	flush := func() error {
		if len(batchRecs) == 0 {
			return nil
		}
		time.Sleep(dispatch) // each INSERT..SELECT is one dispatched statement
		pe, err := plan.Prepare(b.cluster)
		if err != nil {
			return err
		}
		for _, rec := range batchRecs {
			enriched, err := pe.EvalRecord(rec)
			if err != nil {
				return err
			}
			if err := target.Upsert(enriched); err != nil {
				return err
			}
		}
		batchRecs = batchRecs[:0]
		return nil
	}
	// The pull cursor makes the batch loop plain sequential code — no
	// error smuggling out of a callback.
	sc := staged.Scan()
	for {
		_, rec, ok := sc.Next()
		if !ok {
			break
		}
		if sc.Transient() { // the batch outlives the scan's next row
			rec = rec.Detached()
		}
		batchRecs = append(batchRecs, rec)
		if len(batchRecs) >= batch16X {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	// A staging read that faulted ended the scan early: timing the prefix
	// would report a throughput for records never copied.
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	// End-to-end: feed time plus enrichment-copy time.
	total2 := float64(tweets)/res2.throughput + time.Since(stageStart).Seconds()
	tput2 := float64(tweets) / total2
	table.Rows = append(table.Rows, []string{
		"2: feed to staging + batched INSERT..SELECT",
		fmtThroughput(tput2),
		fmt.Sprintf("%d records × 2", tweets)})
	b.opts.logf("    approach-2 %10.0f rec/s", tput2)

	// Approach 3: the framework — UDF attached to the feed.
	res3, err := b.run(runSpec{name: "approach3-feed-udf", tweets: tweets,
		fn: "enrichTweetQ1", batch: batch16X})
	if err != nil {
		return nil, err
	}
	table.Rows = append(table.Rows, []string{
		"3: feed with attached UDF (this framework)",
		fmtThroughput(res3.throughput),
		fmt.Sprintf("%d records × 1", tweets)})
	return table, nil
}

// AblationStaticVsDynamic compares frozen with per-batch refreshed state
// (docs/ARCHITECTURE.md ablation 1): the same enrichment evaluated with frozen
// state (static native), refreshed native state, and refreshed SQL++
// state. The pipelines also differ in shape: the static one runs the UDF
// in an evaluator operator of its own, the dynamic one in its collector.
func AblationStaticVsDynamic(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	tweets := opts.tweetCount(1_000_000)
	nodes := opts.nodes([]int{6})[0]
	b, err := newBench(opts, nodes, workload.Scaled(opts.Scale))
	if err != nil {
		return nil, err
	}
	defer b.cluster.Close()
	table := &Table{
		Title:   fmt.Sprintf("Ablation: static vs dynamic state (%d tweets, Q1, %d nodes)", tweets, nodes),
		Columns: []string{"mode", "throughput (rec/s)"},
		Notes: []string{
			"static state never observes reference updates; the gap to dynamic is the price of correctness, " +
				"plus the static pipeline's separate evaluator operator (parsing overlaps the UDF, at a second copy per record)",
		},
	}
	runs := []struct {
		label string
		spec  runSpec
	}{
		{"static native (frozen state)", runSpec{fn: "nativeQ1", static: true}},
		{"dynamic native 16X", runSpec{fn: "nativeQ1", batch: batch16X}},
		{"dynamic SQL++ 1X", runSpec{fn: "enrichTweetQ1", batch: batch1X}},
		{"dynamic SQL++ 16X", runSpec{fn: "enrichTweetQ1", batch: batch16X}},
	}
	for _, r := range runs {
		r.spec.name = "ablation-static-" + r.label
		r.spec.tweets = tweets
		res, err := b.run(r.spec)
		if err != nil {
			return nil, err
		}
		table.Rows = append(table.Rows, []string{r.label, fmtThroughput(res.throughput)})
	}
	return table, nil
}

// AblationPredeployed isolates what a predeployed computing job keeps
// between batches (docs/ARCHITECTURE.md ablation 2): invocations either
// reuse the compiled plan and — while the reference data is unchanged —
// the enrichment state built from it, paying only the invocation
// message, or recompile the UDF, rebuild the state and pay full
// dispatch overhead every batch.
func AblationPredeployed(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	tweets := opts.tweetCount(1_000_000)
	nodes := opts.nodes([]int{6})[0]
	b, err := newBench(opts, nodes, workload.Scaled(opts.Scale))
	if err != nil {
		return nil, err
	}
	defer b.cluster.Close()
	table := &Table{
		Title:   fmt.Sprintf("Ablation: predeployed jobs — plan and state kept vs recompiled and rebuilt per batch (%d tweets, Q1, %d nodes)", tweets, nodes),
		Columns: []string{"batch", "mode", "throughput (rec/s)", "refresh period"},
	}
	for _, bl := range batchLabels {
		for _, recomp := range []bool{false, true} {
			label := "predeployed"
			if recomp {
				label = "recompile + rebuild per batch"
			}
			res, err := b.run(runSpec{
				name:   fmt.Sprintf("ablation-predeploy-%s-%v", bl.label, recomp),
				tweets: tweets, fn: "enrichTweetQ1", batch: bl.size, recomp: recomp,
			})
			if err != nil {
				return nil, err
			}
			table.Rows = append(table.Rows, []string{bl.label, label,
				fmtThroughput(res.throughput), fmtDuration(res.refresh)})
		}
	}
	return table, nil
}

// AblationDecoupled isolates the layered-pipeline design (docs/ARCHITECTURE.md
// ablation 3): the decoupled intake/computing/storage pipeline versus
// the Section 5.1 fused insert job whose storage write gates each batch.
func AblationDecoupled(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	tweets := opts.tweetCount(1_000_000)
	nodes := opts.nodes([]int{6})[0]
	b, err := newBench(opts, nodes, workload.Scaled(opts.Scale))
	if err != nil {
		return nil, err
	}
	defer b.cluster.Close()
	table := &Table{
		Title:   fmt.Sprintf("Ablation: decoupled vs fused insert job (%d tweets, Q1, %d nodes)", tweets, nodes),
		Columns: []string{"batch", "pipeline", "throughput (rec/s)"},
	}
	for _, bl := range batchLabels {
		for _, fused := range []bool{false, true} {
			label := "decoupled (intake/compute/storage)"
			if fused {
				label = "fused insert job"
			}
			res, err := b.run(runSpec{
				name:   fmt.Sprintf("ablation-decoupled-%s-%v", bl.label, fused),
				tweets: tweets, fn: "enrichTweetQ1", batch: bl.size, fused: fused,
			})
			if err != nil {
				return nil, err
			}
			table.Rows = append(table.Rows, []string{bl.label, label, fmtThroughput(res.throughput)})
		}
	}
	return table, nil
}

// pacedGenerator is a resumable adapter that emits one record per
// delay tick — slow enough that the failover scenario can kill a node
// deterministically mid-stream.
type pacedGenerator struct {
	records [][]byte
	delay   time.Duration
}

func (a *pacedGenerator) Run(ctx context.Context, emit func([]byte) error) error {
	return a.RunFrom(ctx, 0, func(_ uint64, raw []byte) error { return emit(raw) })
}

func (a *pacedGenerator) RunFrom(ctx context.Context, from uint64, emit func(uint64, []byte) error) error {
	for i := int(from); i < len(a.records); i++ {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if err := emit(uint64(i)+1, a.records[i]); err != nil {
			return err
		}
		time.Sleep(a.delay)
	}
	return nil
}

// AblationFailover measures the kill-a-node-mid-ingest scenario: a
// baseline uninterrupted run against a run where one node dies at 25%
// progress, the manager fails the pipeline over to the survivors, and
// the adapter replays from the last checkpoint. The interesting columns
// are completeness (both runs must store every record) and the
// redelivery cost (records re-sent between checkpoint and failure,
// absorbed by idempotent upserts).
func AblationFailover(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	tweets := opts.tweetCount(100_000)
	nodes := opts.nodes([]int{4})[0]
	b, err := newBench(opts, nodes, workload.Scaled(opts.Scale))
	if err != nil {
		return nil, err
	}
	defer b.cluster.Close()
	table := &Table{
		Title:   fmt.Sprintf("Failover: kill a node mid-ingest (%d tweets, %d nodes)", tweets, nodes),
		Columns: []string{"run", "stored", "redelivered", "resumptions", "elapsed"},
		Notes: []string{
			"redelivered = records replayed past the last checkpoint after failover (at-least-once)",
		},
	}

	all := b.gen.Tweets(0, tweets)
	runOnce := func(name string, kill bool) error {
		if err := b.resetTarget("Tweets"); err != nil {
			return err
		}
		m := core.NewManager(b.cluster)
		cfgVal := adm.ObjectValue(adm.ObjectFromPairs(
			"adapter-name", adm.String("channel_adapter"),
			"batch-size", adm.Int(batch1X),
		))
		if err := m.CreateFeed(name, cfgVal); err != nil {
			return err
		}
		if err := m.SetAdapterFactory(name, func(int) (core.Adapter, error) {
			return &pacedGenerator{records: all, delay: 200 * time.Microsecond}, nil
		}); err != nil {
			return err
		}
		if err := m.ConnectFeed(name, "Tweets", ""); err != nil {
			return err
		}
		start := time.Now()
		f, err := m.StartFeed(context.Background(), name)
		if err != nil {
			return err
		}
		ds, _ := b.cluster.Dataset("Tweets")
		// waitFor polls until the dataset holds want records or two
		// minutes pass, and returns the last count.
		waitFor := func(want int, poll time.Duration) (int, error) {
			deadline := time.Now().Add(2 * time.Minute)
			for {
				n, err := ds.Len()
				if err != nil || n >= want || !time.Now().Before(deadline) {
					return n, err
				}
				time.Sleep(poll)
			}
		}
		if kill {
			if _, err := waitFor(tweets/4, 200*time.Microsecond); err != nil {
				return err
			}
			b.cluster.KillNode(nodes - 1)
		}
		if err := f.Wait(); err != nil && !errors.Is(err, cluster.ErrPartitionDown) {
			return err
		}
		n, err := waitFor(tweets, time.Millisecond)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		if n != tweets {
			return fmt.Errorf("failover run %s: dataset holds %d of %d", name, n, tweets)
		}
		st := f.Stats()
		table.Rows = append(table.Rows, []string{
			name,
			fmt.Sprint(st.Stored),
			fmt.Sprint(st.Stored - int64(tweets)),
			fmt.Sprint(st.Resumptions),
			fmtDuration(elapsed),
		})
		b.opts.logf("    %-24s stored=%d resumptions=%d %v", name, st.Stored, st.Resumptions, elapsed)
		return nil
	}
	if err := runOnce("failover-baseline", false); err != nil {
		return nil, err
	}
	if err := runOnce("failover-kill", true); err != nil {
		return nil, err
	}
	return table, nil
}

// AblationQueueCapacity sweeps the partition-holder queue bound
// (docs/ARCHITECTURE.md ablation 4): tighter queues mean more backpressure stalls,
// looser queues more buffering.
func AblationQueueCapacity(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	tweets := opts.tweetCount(10_000_000)
	nodes := opts.nodes([]int{6})[0]
	table := &Table{
		Title:   fmt.Sprintf("Ablation: partition-holder capacity (%d tweets, no UDF, %d nodes)", tweets, nodes),
		Columns: []string{"holder capacity (frames)", "throughput (rec/s)"},
	}
	for _, capacity := range []int{2, 8, 64, 256} {
		tuning := opts.tuning()
		tuning.HolderCapacity = capacity
		cellOpts := opts
		cellOpts.Tuning = &tuning
		b, err := newBench(cellOpts, nodes, workload.Scaled(opts.Scale))
		if err != nil {
			return nil, err
		}
		res, err := b.run(runSpec{
			name:   fmt.Sprintf("ablation-queue-%d", capacity),
			tweets: tweets, batch: batch16X,
		})
		if err != nil {
			return nil, err
		}
		table.Rows = append(table.Rows, []string{fmt.Sprint(capacity), fmtThroughput(res.throughput)})
		b.cluster.Close()
	}
	return table, nil
}
