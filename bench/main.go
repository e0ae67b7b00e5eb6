// Command bench is the repository's benchmark: one command that runs
// the workloads named in BENCHMARK.json end to end on a real data
// directory, checks their outputs, and prints every end-to-end and
// per-layer metric by name with its unit. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runSeconds is the --seconds budget BENCHMARK.json asks the driver
// for, and the default of a run by hand.
const runSeconds = 10

type options struct {
	seed     int64
	seconds  float64
	dataRoot string
	outDir   string
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// environment is recorded with every result: numbers from different
// machines or filesystems are not comparable.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Filesystem string `json:"filesystem"`
	DataRoot   string `json:"data_root"`
	GitCommit  string `json:"git_commit"`
}

func environmentOf(dataRoot string) environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Filesystem: fsType(dataRoot),
		DataRoot:   dataRoot,
		GitCommit:  gitCommit(),
	}
}

// pass is everything one pass of one workload produced.
type pass struct {
	res      result
	info     map[string]any
	problems []string
	stages   []ledgerStage            // traced pass: CPU per record of each replayed stage
	self     map[string]time.Duration // traced pass: self time per span name
	// tracedE2E is the traced pass's re-report of the end-to-end
	// metrics: never the reported ones, only a check on what tracing
	// costs.
	tracedE2E map[string]float64
	// ungated is what the untraced pass measured of the per-layer
	// metrics — the timings of the journey and the engine's counters —
	// printed for people; the result line carries the traced pass's.
	ungated map[string]float64
}

// runPass runs workload w once: untraced, reporting the end-to-end
// metrics, or traced, reporting the per-layer ones.
func runPass(w workload, o options, traced bool) (*pass, error) {
	var tr *tracer
	if traced {
		tr = newTracer(w.name)
	}
	start := time.Now()
	r, err := runE2E(w, o.seed, o.seconds, o.dataRoot, tr)
	if err != nil {
		return nil, err
	}
	p := &pass{info: r.info, problems: r.problems, ungated: r.layer}
	p.res = result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	defs, got := endToEnd, r.metrics
	if traced {
		dir, err := os.MkdirTemp(o.dataRoot, w.name+"-replay-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		layer, stages, err := runReplay(w, r.in, dir, tr, r.layer["core.records_per_invocation"])
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		for name, v := range r.layer {
			layer[name] = v
		}
		sum := 0.0
		for _, s := range stages {
			sum += s.cpuNS
		}
		layer["ledger.sum_ns_per_record"] = sum
		layer["ledger.coverage"] = sum / (r.layer["e2e.ingest_cpu_us_per_record"] * 1e3)
		layer["ledger.trace_overhead_share"] = float64(len(tr.spans)) * spanCost().Seconds() / time.Since(start).Seconds()
		path, err := tr.write(o.outDir)
		if err != nil {
			return nil, err
		}
		p.info["trace_file"] = path
		p.info["spans"] = len(tr.spans)
		p.self = selfTimes(tr.spans)
		p.tracedE2E = r.metrics
		p.stages = stages
		defs, got = perLayer, layer
	}
	for _, m := range defs {
		p.res.Metrics[m.Name] = value{got[m.Name], m.Unit}
	}
	for name := range got {
		if _, declared := p.res.Metrics[name]; !declared {
			return nil, fmt.Errorf("metric %q is measured but not declared in metrics.go", name)
		}
	}
	return p, nil
}

// spanCost measures what recording one span costs, so the traced
// pass's overhead can be stated: the difference between a traced and
// an untraced run is far smaller than the spread between two runs.
func spanCost() time.Duration {
	const n = 200_000
	t := newTracer("calibration")
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.start("span", noSpan))
	}
	return time.Since(start) / n
}

// report prints a pass for people: every metric by name with its unit,
// sample counts, and on the traced pass the stage ledger.
func report(w workload, o options, traced bool, p *pass) {
	kind, defs := "end-to-end (untraced)", endToEnd
	if traced {
		kind, defs = "per-layer (traced)", perLayer
	}
	fmt.Printf("== %s: %s, seed %d, %g s budget\n", w.name, kind, o.seed, o.seconds)
	for _, m := range defs {
		fmt.Printf("  %-40s %16.4f %s\n", m.Name, p.res.Metrics[m.Name].Value, m.Unit)
	}
	if !traced {
		for _, m := range perLayer {
			if v, ok := p.ungated[m.Name]; ok {
				fmt.Printf("  (not gated) %-28s %16.4f %s\n", m.Name, v, m.Unit)
			}
		}
	}
	keys := make([]string, 0, len(p.info))
	for k := range p.info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  (%s = %v)\n", k, p.info[k])
	}
	if traced {
		for _, m := range endToEnd {
			fmt.Printf("  (traced pass) %-26s %16.4f %s\n", m.Name, p.tracedE2E[m.Name], m.Unit)
		}
		sum := p.res.Metrics["ledger.sum_ns_per_record"].Value
		stages := append([]ledgerStage(nil), p.stages...)
		sort.Slice(stages, func(i, j int) bool { return stages[i].cpuNS > stages[j].cpuNS })
		fmt.Printf("  stage ledger, CPU per record along the ingestion path (largest first):\n")
		for _, s := range stages {
			fmt.Printf("    %-44s %10.0f ns %5.1f%%\n", s.name, s.cpuNS, 100*s.cpuNS/sum)
		}
		names := make([]string, 0, len(p.self))
		for name := range p.self {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool { return p.self[names[i]] > p.self[names[j]] })
		fmt.Printf("  self time by span name, duration minus children (largest first):\n")
		for _, name := range names[:min(12, len(names))] {
			fmt.Printf("    %-44s %10.1f ms\n", name, ms(p.self[name]))
		}
	}
	for _, problem := range p.problems {
		fmt.Printf("  FAILED: %s\n", problem)
	}
	fmt.Printf("  attempted %d, failed %d\n", p.res.Attempted, p.res.Failed)
}

// save writes the pass with its environment to the output directory.
func save(w workload, o options, traced bool, p *pass) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	mode := "end-to-end"
	if traced {
		mode = "per-layer"
	}
	data, err := json.MarshalIndent(map[string]any{
		"workload": w.name, "why": w.why, "mode": mode, "seed": o.seed, "seconds": o.seconds,
		"environment": environmentOf(o.dataRoot), "result": p.res, "info": p.info, "problems": p.problems,
		"end_to_end_traced": p.tracedE2E,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.outDir, "result-"+w.name+"-"+mode+".json"), data, 0o644)
}

func runAndReport(w workload, o options, traced bool) (*pass, error) {
	p, err := runPass(w, o, traced)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	report(w, o, traced, p)
	if err := save(w, o, traced, p); err != nil {
		return nil, err
	}
	return p, nil
}

// selfcheck runs the untraced suite twice back to back and fails
// unless every end-to-end metric of the second run is within its bound
// of the first.
func selfcheck(o options) bool {
	ok := true
	for _, w := range workloads {
		var runs [2]*pass
		for i := range runs {
			p, err := runPass(w, o, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return false
			}
			ok = ok && p.res.Correct
			runs[i] = p
		}
		fmt.Printf("== %s: selfcheck\n", w.name)
		for _, m := range endToEnd {
			a, b := runs[0].res.Metrics[m.Name].Value, runs[1].res.Metrics[m.Name].Value
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict, ok = "OUT OF BOUND", false
			}
			fmt.Printf("  %-28s run1 %14.4f  run2 %14.4f %-6s worse by %+6.2f%% (bound %2.0f%%) %s\n",
				m.Name, a, b, m.Unit, 100*worse, 100*m.Bound, verdict)
		}
	}
	return ok
}

// benchmarkJSON renders BENCHMARK.json from the tables in this package.
func benchmarkJSON() ([]byte, error) {
	type workloadDoc struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDoc struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDoc `json:"workloads"`
		EndToEnd   []metric      `json:"end_to_end"`
		PerLayer   []layerDoc    `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds, EndToEnd: endToEnd}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadDoc{w.name, w.why})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerDoc{m.Name, m.Unit, m.Better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	return append(data, '\n'), err
}

func main() {
	var o options
	name := flag.String("workload", "", "run this workload only and print the driver's result line last (default: run them all, untraced then traced)")
	trace := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 runs the traced pass and reports the per-layer metrics")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "time budget the frozen per-second sizes are multiplied by")
	flag.StringVar(&o.dataRoot, "data-root", ".bench_build/data", "directory the clusters' data directories are created under")
	flag.StringVar(&o.outDir, "out", "out", "directory for trace-<workload>.json and result files")
	check := flag.Bool("selfcheck", false, "run the untraced suite twice and fail unless run 2 is within every bound of run 1")
	emit := flag.Bool("benchmark-json", false, "print BENCHMARK.json as generated from this package and exit")
	flag.Parse()
	if err := os.MkdirAll(o.dataRoot, 0o755); err != nil {
		fatal(err)
	}

	switch {
	case *emit:
		data, err := benchmarkJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
	case *check:
		if !selfcheck(o) {
			os.Exit(1)
		}
	case *name != "":
		w, err := findWorkload(*name)
		if err != nil {
			fatal(err)
		}
		p, err := runAndReport(w, o, *trace != 0)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(p.res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !p.res.Correct {
			os.Exit(1)
		}
	default:
		env, _ := json.Marshal(environmentOf(o.dataRoot))
		fmt.Printf("environment: %s\n", env)
		correct := true
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				p, err := runAndReport(w, o, traced)
				if err != nil {
					fatal(err)
				}
				correct = correct && p.res.Correct
			}
		}
		if !correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
