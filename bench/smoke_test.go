package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON holds BENCHMARK.json to the tables it is generated
// from and to the limits its readers enforce.
func TestBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run . -benchmark-json > ../BENCHMARK.json`")
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed 8/16/128", len(workloads), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || bytes.ContainsRune([]byte(w.why), '\n') {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	for _, m := range endToEnd {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: unit %q or bound %g out of range", m.Name, m.Unit, m.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not declared")
	}
	for _, m := range perLayer {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is malformed", m.Name, m.Unit)
		}
	}
}

func names(defs []metric) []string {
	out := make([]string, len(defs))
	for i, m := range defs {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSmoke runs every workload's traced pass at about 1/200 size: the
// outputs must check out, the printed metric names must be exactly the
// declared ones, and the trace must parse with every parent present.
func TestSmoke(t *testing.T) {
	o := options{seed: 7, seconds: 0.1, dataRoot: t.TempDir(), outDir: t.TempDir()}
	for _, w := range workloads {
		p, err := runPass(w, o, true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !p.res.Correct {
			t.Errorf("%s: %d of %d failed: %v", w.name, p.res.Failed, p.res.Attempted, p.problems)
		}
		var layer, e2e []string
		for name := range p.res.Metrics {
			layer = append(layer, name)
		}
		for name, v := range p.tracedE2E {
			e2e = append(e2e, name)
			if v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.name, name, v)
			}
		}
		sort.Strings(layer)
		sort.Strings(e2e)
		if !equal(layer, names(perLayer)) {
			t.Errorf("%s: per-layer metrics %v, declared %v", w.name, layer, names(perLayer))
		}
		if !equal(e2e, names(endToEnd)) {
			t.Errorf("%s: end-to-end metrics %v, declared %v", w.name, e2e, names(endToEnd))
		}

		data, err := os.ReadFile(p.info["trace_file"].(string))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(data, &spans); err != nil {
			t.Fatalf("%s: trace does not parse: %v", w.name, err)
		}
		if len(spans) == 0 {
			t.Errorf("%s: empty trace", w.name)
		}
		for i, s := range spans {
			if s.Parent != noSpan && (s.Parent < 0 || s.Parent >= i) {
				t.Errorf("%s: span %d (%s) names parent %d, which is not an earlier span", w.name, i, s.Name, s.Parent)
			}
			if s.EndNS < s.StartNS || s.Workload != w.name {
				t.Errorf("%s: span %d (%s) is malformed: %+v", w.name, i, s.Name, s)
			}
		}
	}
}
