// Package serve is the inference half of the training/inference split: an
// HTTP server answering forecast and Granger-network queries from saved
// model artifacts (internal/model), without refitting.
//
// Three properties organize the design:
//
//   - Versioned hot-swap: models live in a Registry keyed by name; Reload
//     atomically replaces an entry and bumps its version. In-flight batches
//     snapshot their entry once, so every response names the exact version
//     that computed it and a reload never tears a batch.
//   - Micro-batching: concurrent forecast requests against the same model
//     coalesce in a bounded queue and run as one batched GEMM per lag
//     (Predictor.ForecastBatch). The batcher is work-conserving: a batch is
//     whatever is already queued, dispatched at once; it collects for
//     BatchWindow only while a streaming refit shares the CPU. Because the
//     batched kernel's output rows are bit-independent of batch
//     composition, coalescing is invisible in the response bytes — only in
//     the throughput.
//   - Bounded everything: per-endpoint concurrency limits (429 when
//     exceeded), per-request deadlines (504), an LRU response cache, and
//     drain-on-shutdown that completes in-flight requests before the
//     batchers stop.
package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"uoivar/internal/model"
)

// Entry is one immutable registered model version. The registry replaces
// whole entries on reload; an Entry captured by a request or batch stays
// valid (and keeps answering with its own version) for as long as anyone
// holds it.
type Entry struct {
	// Name is the registry key this entry is published under.
	Name string
	// Version counts loads of this name, starting at 1.
	Version  int
	Path     string    // source file ("" for programmatic Set)
	LoadedAt time.Time // when this version was registered
	// Artifact is the decoded model artifact backing this entry.
	Artifact *model.Artifact
	// Pred is the predictor compiled from Artifact, shared by requests.
	Pred *model.Predictor
}

// Registry maps model names to their current Entry.
type Registry struct {
	mu     sync.RWMutex
	models map[string]*Entry
	// clock is stubbed in tests; defaults to time.Now.
	clock func() time.Time
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{models: make(map[string]*Entry), clock: time.Now}
}

// Set registers (or hot-swaps) a model under name, deriving its predictor.
// Returns the new entry.
func (r *Registry) Set(name string, art *model.Artifact, path string) (*Entry, error) {
	pred, err := model.NewPredictor(art)
	if err != nil {
		return nil, fmt.Errorf("serve: model %q: %w", name, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	version := 1
	if old := r.models[name]; old != nil {
		version = old.Version + 1
	}
	e := &Entry{
		Name: name, Version: version, Path: path,
		LoadedAt: r.clock(), Artifact: art, Pred: pred,
	}
	r.models[name] = e
	return e, nil
}

// LoadFile loads one artifact file and registers it under the file's base
// name (sans the .uoim extension).
func (r *Registry) LoadFile(path string) (*Entry, error) {
	art, err := model.Load(path)
	if err != nil {
		return nil, err
	}
	name := strings.TrimSuffix(filepath.Base(path), model.Ext)
	return r.Set(name, art, path)
}

// LoadDir scans dir for *.uoim artifacts and registers each. Returns the
// loaded entries (sorted by name); an unreadable or corrupt artifact fails
// the whole load so a registry never silently serves a partial directory.
func (r *Registry) LoadDir(dir string) ([]*Entry, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var entries []*Entry
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), model.Ext) {
			continue
		}
		e, err := r.LoadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	return entries, nil
}

// Get returns the current entry for name (nil when absent).
func (r *Registry) Get(name string) *Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.models[name]
}

// Len returns the number of registered models.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.models)
}

// List returns the current entries sorted by name.
func (r *Registry) List() []*Entry {
	r.mu.RLock()
	out := make([]*Entry, 0, len(r.models))
	for _, e := range r.models {
		out = append(out, e)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Reload re-reads every file-backed entry from its source path, hot-swapping
// the ones that load and leaving the registry's previous entry in place for
// any that fail. Returns the refreshed entries and the first error.
func (r *Registry) Reload() ([]*Entry, error) {
	var firstErr error
	var out []*Entry
	for _, e := range r.List() {
		if e.Path == "" {
			continue
		}
		ne, err := r.LoadFile(e.Path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		out = append(out, ne)
	}
	return out, firstErr
}
