// Command linkcheck guards the documentation against rot. It walks a
// directory tree and fails on three kinds of drift:
//
//   - a relative markdown link, in any *.md file, that points at a file
//     that does not exist;
//   - a ROADMAP item number ("item 4") in a current doc — item numbers
//     change whenever the roadmap is re-anchored, so a doc cites the
//     mechanism or the PR instead;
//   - a Test…, Benchmark… or Fuzz… name, cited in a current doc or in a
//     CI workflow under .github/workflows, that is not a prefix of a
//     function declared in some _test.go file of the tree. Prefix,
//     because `go test -run` patterns such as TestGolden select by
//     prefix; a renamed test can no longer leave a doc or a CI step
//     pointing at nothing.
//
// Every *.md is a current doc except the history docs (CHANGES.md and
// ROADMAP.md) and plans: a doc with a markdown task list ("- [ ] …")
// cites roadmap items and tests that are yet to be written.
//
// CI runs it over the repository root (the docs job), and the package's
// own test runs the same checks on the repository, so `go test ./...`
// enforces them too.
//
// External links (http/https/mailto) are not fetched — the check is
// offline and deterministic. Anchors are stripped before the existence
// check, so README.md#quickstart validates README.md.
//
// Usage:
//
//	linkcheck [dir]
package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

var (
	// linkRe matches inline markdown links [text](target). Images and
	// reference-style definitions are rare in this repo; inline links
	// are the form the docs use.
	linkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	// itemRe matches a ROADMAP item citation.
	itemRe = regexp.MustCompile(`(?i)\bitems? [0-9]+`)
	// citedRe matches a test, benchmark or fuzz target name.
	citedRe = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9]\w*`)
	// declRe matches a top-level function declaration in a _test.go file.
	declRe = regexp.MustCompile(`(?m)^func (\w+)\(`)
	// taskRe matches a markdown task-list item, the mark of a plan.
	taskRe = regexp.MustCompile(`(?m)^\s*[-*] \[[ xX]\] `)
)

// history names the docs that record the past: they may cite item
// numbers and tests that no longer exist.
var history = map[string]bool{"CHANGES.md": true, "ROADMAP.md": true}

// report is what one walk found.
type report struct {
	files, links int
	failures     []string // "path:line: what", in walk order
}

// check walks root and reports every broken link, item citation and
// cited test that does not exist.
func check(root string) (report, error) {
	var (
		r     report
		docs  []string // current docs: scanned for cited tests
		decls []string // functions declared in _test.go files
	)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			// .bench_build holds the benchmark's private build cache.
			if name == ".git" || name == "node_modules" || name == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case strings.HasSuffix(name, "_test.go"):
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range declRe.FindAllSubmatch(data, -1) {
				decls = append(decls, string(m[1]))
			}
		case strings.EqualFold(filepath.Ext(name), ".md"):
			r.files++
			past, err := checkMarkdown(&r, path)
			if err != nil {
				return err
			}
			if !past {
				docs = append(docs, path)
			}
		case strings.HasSuffix(filepath.ToSlash(filepath.Dir(path)), ".github/workflows") &&
			(strings.HasSuffix(name, ".yml") || strings.HasSuffix(name, ".yaml")):
			docs = append(docs, path)
		}
		return nil
	})
	if err != nil {
		return r, err
	}
	sort.Strings(decls)
	for _, path := range docs {
		if err := checkCited(&r, path, decls); err != nil {
			return r, err
		}
	}
	return r, nil
}

// checkMarkdown checks one markdown file's links and, unless it is a
// history doc or a plan, its item citations. It reports whether the file
// is a history doc or a plan.
func checkMarkdown(r *report, path string) (past bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	past = history[filepath.Base(path)] || taskRe.Match(data)
	for i, line := range strings.Split(string(data), "\n") {
		for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if !checkable(target) {
				continue
			}
			r.links++
			if !exists(path, target) {
				r.failures = append(r.failures, fmt.Sprintf("%s:%d: broken link: %s", path, i+1, target))
			}
		}
		if past {
			continue
		}
		for _, m := range itemRe.FindAllString(line, -1) {
			r.failures = append(r.failures, fmt.Sprintf("%s:%d: ROADMAP item number %q: cite the mechanism or the PR", path, i+1, m))
		}
	}
	return past, nil
}

// checkCited reports every test name path cites that is not a prefix of
// a declared function (decls sorted).
func checkCited(r *report, path string, decls []string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	for i, line := range strings.Split(string(data), "\n") {
		for _, name := range citedRe.FindAllString(line, -1) {
			j := sort.SearchStrings(decls, name)
			if j == len(decls) || !strings.HasPrefix(decls[j], name) {
				r.failures = append(r.failures, fmt.Sprintf("%s:%d: cites %s, which no _test.go declares", path, i+1, name))
			}
		}
	}
	return nil
}

// checkable reports whether target is a relative filesystem link this
// tool can verify offline.
func checkable(target string) bool {
	switch {
	case strings.Contains(target, "://"), // http:, https:, etc.
		strings.HasPrefix(target, "mailto:"),
		strings.HasPrefix(target, "#"): // same-file anchor
		return false
	}
	return true
}

// exists resolves target relative to the markdown file that contains it
// and checks the filesystem (anchor stripped).
func exists(mdFile, target string) bool {
	if i := strings.IndexByte(target, '#'); i >= 0 {
		target = target[:i]
	}
	if target == "" {
		return true
	}
	_, err := os.Stat(filepath.Join(filepath.Dir(mdFile), target))
	return err == nil
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	r, err := check(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "linkcheck:", err)
		os.Exit(2)
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, f)
	}
	fmt.Printf("linkcheck: %d files, %d relative links, %d failures\n", r.files, r.links, len(r.failures))
	if len(r.failures) > 0 {
		os.Exit(1)
	}
}
