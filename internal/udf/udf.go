// Package udf is the user-defined-function framework: the Go analog of
// the paper's Java UDFs (compiled code with an initialize/evaluate
// lifecycle and node-local resource files) plus the registry that ties
// native and SQL++ functions together for feed pipelines.
//
// Lifecycle semantics mirror the paper exactly:
//   - On the old "static" pipeline an instance is initialized once when
//     the feed starts, so resource updates are never observed.
//   - On the new "dynamic" pipeline an instance is initialized once per
//     computing-job invocation, so each batch observes the current
//     resources — the paper's reference-data-update guarantee, for
//     compiled UDFs.
package udf

import (
	"bufio"
	"bytes"
	"fmt"
	"sync"

	"github.com/ideadb/idea/internal/adm"
)

// ResourceStore holds the "local resource files" native UDFs load in
// Initialize. Updating a resource models redeploying the file to every
// node.
type ResourceStore struct {
	mu    sync.RWMutex
	files map[string][]byte
}

// NewResourceStore returns an empty store.
func NewResourceStore() *ResourceStore {
	return &ResourceStore{files: make(map[string][]byte)}
}

// Put installs (or replaces) a resource file.
func (s *ResourceStore) Put(name string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.files[name] = append([]byte(nil), data...)
}

// Get reads a resource file.
func (s *ResourceStore) Get(name string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.files[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), data...), true
}

// Lines reads a resource file as trimmed lines (the paper's keyword-list
// format).
func (s *ResourceStore) Lines(name string) ([]string, bool) {
	data, ok := s.Get(name)
	if !ok {
		return nil, false
	}
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if line := sc.Text(); line != "" {
			lines = append(lines, line)
		}
	}
	return lines, true
}

// Instance is one live evaluator of a native UDF (per node, per
// pipeline or per batch depending on the framework).
type Instance interface {
	// Initialize loads resources and builds state. node identifies the
	// hosting node (the paper's nodeInfo).
	Initialize(node int) error
	// Evaluate enriches one record.
	Evaluate(rec adm.Value) (adm.Value, error)
}

// Native is a compiled ("Java") UDF: a factory of instances. Whatever
// state Initialize builds from resources, the static pipeline keeps for
// the feed's life and the dynamic pipeline rebuilds per batch.
type Native struct {
	// Name is the function's registered name.
	Name string
	// New creates an instance.
	New func() Instance
}

// FuncInstance adapts plain functions to Instance.
type FuncInstance struct {
	InitFn func(node int) error
	EvalFn func(rec adm.Value) (adm.Value, error)
}

// Initialize implements Instance.
func (f *FuncInstance) Initialize(node int) error {
	if f.InitFn == nil {
		return nil
	}
	return f.InitFn(node)
}

// Evaluate implements Instance.
func (f *FuncInstance) Evaluate(rec adm.Value) (adm.Value, error) {
	if f.EvalFn == nil {
		return rec, nil
	}
	return f.EvalFn(rec)
}

// Registry holds the native UDFs available to feed pipelines.
type Registry struct {
	mu      sync.RWMutex
	natives map[string]*Native
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{natives: make(map[string]*Native)}
}

// Register adds a native UDF.
func (r *Registry) Register(n *Native) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.natives[n.Name]; dup {
		return fmt.Errorf("udf: native function %q exists", n.Name)
	}
	r.natives[n.Name] = n
	return nil
}

// Lookup resolves a native UDF.
func (r *Registry) Lookup(name string) (*Native, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n, ok := r.natives[name]
	return n, ok
}
