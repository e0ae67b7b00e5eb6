package experiments

import (
	"strconv"
	"strings"
	"testing"

	"github.com/ideadb/idea/internal/cluster"
	"github.com/ideadb/idea/internal/workload"
)

// tinyOptions keeps the full figure sweeps fast enough for unit tests.
func tinyOptions() Options {
	tuning := cluster.DefaultTuning()
	tuning.DispatchOverheadPerNode = 0
	tuning.InvokeOverheadPerNode = 0
	return Options{
		Scale:  0.0005,
		Tweets: 400,
		Seed:   7,
		Tuning: &tuning,
	}
}

func cellValue(t *testing.T, table *Table, want map[string]string, valueCol string) float64 {
	t.Helper()
	colIdx := map[string]int{}
	for i, c := range table.Columns {
		colIdx[c] = i
	}
	vi, ok := colIdx[valueCol]
	if !ok {
		t.Fatalf("table %q has no column %q", table.Title, valueCol)
	}
row:
	for _, row := range table.Rows {
		for col, val := range want {
			ci, ok := colIdx[col]
			if !ok {
				t.Fatalf("table %q has no column %q", table.Title, col)
			}
			if row[ci] != val {
				continue row
			}
		}
		f, err := strconv.ParseFloat(strings.TrimSuffix(row[vi], "x"), 64)
		if err != nil {
			// Durations like "0.123s".
			f, err = strconv.ParseFloat(strings.TrimSuffix(row[vi], "s"), 64)
			if err != nil {
				t.Fatalf("cell %v = %q not numeric", want, row[vi])
			}
		}
		return f
	}
	t.Fatalf("table %q has no row matching %v", table.Title, want)
	return 0
}

func TestRegistryNamesAndUnknown(t *testing.T) {
	names := Names()
	if len(names) != len(Registry) {
		t.Fatalf("Names() returned %d of %d", len(names), len(Registry))
	}
	if _, err := Run("nope", Options{}); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestFig24Tiny(t *testing.T) {
	opts := tinyOptions()
	opts.Nodes = []int{1, 2}
	table, err := Fig24BasicIngestion(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2*8 {
		t.Fatalf("rows = %d, want 16", len(table.Rows))
	}
	// Every throughput must be positive.
	for _, row := range table.Rows {
		v, _ := strconv.ParseFloat(row[2], 64)
		if v <= 0 {
			t.Errorf("non-positive throughput in row %v", row)
		}
	}
}

func TestFig25And26Tiny(t *testing.T) {
	opts := tinyOptions()
	opts.Nodes = []int{2}
	table, err := Fig25EnrichmentUDFs(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 5*7 {
		t.Fatalf("fig25 rows = %d, want 35", len(table.Rows))
	}
	opts26 := opts
	opts26.Tweets = 3000 // several 1X invocations so periods are measurable
	t26, err := Fig26RefreshPeriods(opts26)
	if err != nil {
		t.Fatal(err)
	}
	if len(t26.Rows) != 5*3 {
		t.Fatalf("fig26 rows = %d, want 15", len(t26.Rows))
	}
	// Refresh period grows with batch size for the hash-join use case
	// (more records per batch). Generous tolerance: at test scale each
	// cell is a handful of invocations and scheduler noise is real.
	r1 := cellValue(t, t26, map[string]string{"use case": "Safety Rating", "batch": "1X"}, "refresh period")
	r16 := cellValue(t, t26, map[string]string{"use case": "Safety Rating", "batch": "16X"}, "refresh period")
	if r16 < r1*0.5 {
		t.Errorf("refresh period should grow with batch size: 1X=%v 16X=%v", r1, r16)
	}
}

func TestFig27Tiny(t *testing.T) {
	opts := tinyOptions()
	opts.Nodes = []int{2}
	opts.Tweets = 300
	table, err := Fig27UpdateRates(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 5*len(fig27Rates) {
		t.Fatalf("fig27 rows = %d", len(table.Rows))
	}
	// With no reference writes the feed builds its state once and never
	// patches it.
	for _, fn := range fig25UseCases {
		cell := map[string]string{"use case": workload.UseCaseLabels[fn], "update rate (rec/s)": "0"}
		if p := cellValue(t, table, cell, "access patches"); p != 0 {
			t.Errorf("%s at update rate 0: %v access patches, want 0", fn, p)
		}
		if b := cellValue(t, table, cell, "access builds"); b > 1 {
			t.Errorf("%s at update rate 0: %v access builds, want at most 1", fn, b)
		}
	}
	// Safety Rating probes the primary index of the dataset the updates
	// write: at any rate it builds and patches nothing.
	for _, row := range table.Rows {
		if row[0] != workload.UseCaseLabels["enrichTweetQ1"] {
			continue
		}
		cell := map[string]string{"use case": row[0], "update rate (rec/s)": row[1]}
		if b, p := cellValue(t, table, cell, "access builds"), cellValue(t, table, cell, "access patches"); b != 0 || p != 0 {
			t.Errorf("Safety Rating at update rate %s: %v access builds, %v patches; want none", row[1], b, p)
		}
	}
}

func TestFig28Tiny(t *testing.T) {
	opts := tinyOptions()
	opts.Nodes = []int{2, 3}
	table, err := Fig28RefScaleOut(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2*5 {
		t.Fatalf("fig28 rows = %d, want 10", len(table.Rows))
	}
}

func TestFig29Tiny(t *testing.T) {
	opts := tinyOptions()
	opts.Nodes = []int{2}
	opts.Tweets = 200
	table, err := Fig29Complexity(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 4*3 {
		t.Fatalf("fig29 rows = %d, want 12", len(table.Rows))
	}
}

func TestFig30Tiny(t *testing.T) {
	opts := tinyOptions()
	opts.Nodes = []int{1, 2}
	opts.Tweets = 200
	table, err := Fig30SpeedUp(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 8*3 {
		t.Fatalf("fig30 rows = %d, want 24", len(table.Rows))
	}
}

func TestFig31Tiny(t *testing.T) {
	opts := tinyOptions()
	opts.Nodes = []int{1, 2}
	opts.Tweets = 200
	table, err := Fig31ComplexScaleOut(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 5*2 {
		t.Fatalf("fig31 rows = %d, want 10", len(table.Rows))
	}
	// The smallest cluster's speed-up is exactly 1.00x by construction.
	v := cellValue(t, table, map[string]string{"use case": "Tweet Context", "nodes": "1"}, "speed-up vs smallest")
	if v != 1.0 {
		t.Errorf("base speed-up = %v", v)
	}
}

func TestAblationsTiny(t *testing.T) {
	opts := tinyOptions()
	opts.Nodes = []int{2}
	opts.Tweets = 300
	for _, name := range []string{"ablation-static", "ablation-predeploy", "ablation-decoupled", "ablation-queue", "approaches"} {
		table, err := Run(name, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(table.Rows) == 0 {
			t.Errorf("%s produced no rows", name)
		}
	}
}

func TestAblationFailoverTiny(t *testing.T) {
	opts := tinyOptions()
	opts.Nodes = []int{3}
	opts.Tweets = 600
	table, err := Run("ablation-failover", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(table.Rows))
	}
	// The kill run must have failed over at least once and still stored
	// the complete stream (completeness is checked inside the runner).
	kill := table.Rows[1]
	if kill[3] == "0" {
		t.Errorf("kill run reports 0 resumptions: node death missed the ingest window")
	}
}

func TestTablePrint(t *testing.T) {
	table := &Table{
		Title:   "T",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "two"}},
		Notes:   []string{"n"},
	}
	var sb strings.Builder
	table.Print(&sb)
	out := sb.String()
	for _, want := range []string{"== T ==", "a", "two", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("Print output missing %q:\n%s", want, out)
		}
	}
}
