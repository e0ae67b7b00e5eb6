package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCheck(t *testing.T) {
	const decl = "package x\n\nimport \"testing\"\n\nfunc TestGoldenRunFile(t *testing.T) {}\n\nfunc BenchmarkScan(b *testing.B) {}\n"
	for _, tc := range []struct {
		name  string
		files map[string]string
		want  []string // one substring per expected failure, in order
	}{
		{
			name:  "link resolves",
			files: map[string]string{"README.md": "[doc](docs/A.md#part)", "docs/A.md": "[back](../README.md)"},
		},
		{
			name:  "broken link",
			files: map[string]string{"README.md": "ok\n[gone](docs/GONE.md)"},
			want:  []string{"README.md:2: broken link: docs/GONE.md"},
		},
		{
			name: "item number in a history doc or a plan",
			files: map[string]string{
				"CHANGES.md":   "PR 9: ROADMAP item 4 ticked",
				"ROADMAP.md":   "Items 2 and 3",
				"docs/PLAN.md": "item 9\n\n- [ ] TestNotYetWritten passes",
				"docs/DONE.md": "- [x] item 2",
			},
		},
		{
			name:  "item number in a current doc",
			files: map[string]string{"docs/A.md": "the race of\nROADMAP Item 4", "README.md": "127 items per node"},
			want:  []string{`A.md:2: ROADMAP item number "Item 4"`},
		},
		{
			name:  "cited test is declared",
			files: map[string]string{"x_test.go": decl, "README.md": "`TestGoldenRunFile` and BenchmarkScan/warm"},
		},
		{
			name:  "cited test is a prefix of a declared one",
			files: map[string]string{"x_test.go": decl, "README.md": "go test -run 'TestGolden' and BenchmarkSc"},
		},
		{
			name:  "cited test is not declared",
			files: map[string]string{"x_test.go": decl, "README.md": "TestGoldenRunFileV1 is gone"},
			want:  []string{"README.md:1: cites TestGoldenRunFileV1"},
		},
		{
			name: "history docs may cite tests that are gone",
			files: map[string]string{
				"x_test.go":  decl,
				"CHANGES.md": "deleted TestArenaSuccessor",
			},
		},
		{
			name: "a CI workflow cites tests too",
			files: map[string]string{
				"x_test.go":                 decl,
				".github/workflows/ci.yml":  "run: go test -run 'TestGolden|TestEnvelope' ./...",
				".github/workflows/doc.txt": "TestNothing",
			},
			want: []string{"ci.yml:1: cites TestEnvelope"},
		},
		{
			name:  "functions outside _test.go files do not count",
			files: map[string]string{"x.go": "package x\n\nfunc TestHelper() {}\n", "README.md": "TestHelper"},
			want:  []string{"cites TestHelper"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			for name, body := range tc.files {
				path := filepath.Join(root, filepath.FromSlash(name))
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			r, err := check(root)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.failures) != len(tc.want) {
				t.Fatalf("failures = %q, want %d matching %q", r.failures, len(tc.want), tc.want)
			}
			for i, want := range tc.want {
				if !strings.Contains(r.failures[i], want) {
					t.Errorf("failure %d = %q, want it to contain %q", i, r.failures[i], want)
				}
			}
		})
	}
}

// TestRepositoryDocs runs the checks CI's docs job runs on the whole
// repository, so a plain `go test ./...` enforces them too.
func TestRepositoryDocs(t *testing.T) {
	r, err := check(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if r.files == 0 {
		t.Fatal("no markdown files found above cmd/linkcheck")
	}
	for _, f := range r.failures {
		t.Error(f)
	}
}
