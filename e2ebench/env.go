package main

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/mat"
	"repro/internal/mmapio"
	"repro/internal/sweep"
)

// configure sets every process-global run knob the pipeline reads to one
// explicit value — workers for the sweep fan-out, the shared worker budget
// and the blocked matrix kernels; f64 inference; mmap loads on; store as
// the artifact store — and returns a function that restores the previous
// settings. Runs never fall back to the user's default cache directory.
func configure(workers int, store artifact.Store) (restore func(), err error) {
	prevWorkers, prevPrecision := experiments.Workers(), experiments.Precision()
	prevStore := experiments.ActiveStore()
	prevBudget, prevPar := sweep.BudgetCap(), mat.Parallelism()
	prevNoMmap := mmapio.Disabled()
	if err := experiments.Configure(workers, eval.PrecisionF64); err != nil {
		return nil, err
	}
	experiments.SetStore(store)
	sweep.SetBudget(workers)
	mat.SetParallelism(workers)
	mmapio.SetDisabled(false)
	return func() {
		// Both values were valid when read, so Configure cannot fail here.
		_ = experiments.Configure(prevWorkers, prevPrecision)
		experiments.SetStore(prevStore)
		sweep.SetBudget(prevBudget)
		mat.SetParallelism(prevPar)
		mmapio.SetDisabled(prevNoMmap)
	}, nil
}

// meteredStore wraps the on-disk artifact store and counts what each lookup
// did: hits, misses, and the time spent decoding (load) and encoding
// (store) entries. It forwards the file seam, so campaigns still load
// zero-copy through mmap.
type meteredStore struct {
	disk *artifact.Disk

	hits, misses    atomic.Int64
	loadNs, storeNs atomic.Int64
}

var _ artifact.FileStore = (*meteredStore)(nil)

// newStore creates an empty artifact store in a fresh directory under dir.
func newStore(dir string) (*meteredStore, error) {
	root, err := os.MkdirTemp(dir, "store-")
	if err != nil {
		return nil, err
	}
	disk, err := artifact.NewDisk(root)
	if err != nil {
		os.RemoveAll(root)
		return nil, err
	}
	return &meteredStore{disk: disk}, nil
}

// remove deletes the store's directory.
func (s *meteredStore) remove() error { return os.RemoveAll(s.disk.Root()) }

// bytes returns the store's size on disk.
func (s *meteredStore) bytes() int64 {
	var n int64
	_ = filepath.WalkDir(s.disk.Root(), func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

func timed[T any](acc *atomic.Int64, fn func(T) error) func(T) error {
	return func(v T) error {
		t0 := time.Now()
		err := fn(v)
		acc.Add(int64(time.Since(t0)))
		return err
	}
}

func (s *meteredStore) count(hit bool) {
	if hit {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
}

func (s *meteredStore) GetOrCreate(key artifact.Key, decode func(io.Reader) error, create func() error, encode func(io.Writer) error) (bool, error) {
	hit, err := s.disk.GetOrCreate(key, timed(&s.loadNs, decode), create, timed(&s.storeNs, encode))
	s.count(hit)
	return hit, err
}

func (s *meteredStore) GetOrCreateFile(key artifact.Key, load func(path string, payloadOff int64) error, create func() error, encode func(io.Writer) error) (bool, error) {
	timedLoad := func(path string, off int64) error {
		t0 := time.Now()
		err := load(path, off)
		s.loadNs.Add(int64(time.Since(t0)))
		return err
	}
	hit, err := s.disk.GetOrCreateFile(key, timedLoad, create, timed(&s.storeNs, encode))
	s.count(hit)
	return hit, err
}

// storeCounters snapshots the counters for the per-layer report.
type storeCounters struct {
	hits, misses int64
	load, store  time.Duration
}

func (s *meteredStore) counters() storeCounters {
	return storeCounters{
		hits: s.hits.Load(), misses: s.misses.Load(),
		load: time.Duration(s.loadNs.Load()), store: time.Duration(s.storeNs.Load()),
	}
}

// withStore opens a fresh store under dir, configures the globals to it at
// the given worker count, runs fn, and restores the globals and removes the
// store on every path.
func withStore(dir string, workers int, fn func(s *meteredStore) error) (err error) {
	s, err := newStore(dir)
	if err != nil {
		return fmt.Errorf("open store: %w", err)
	}
	defer func() {
		if rerr := s.remove(); rerr != nil && err == nil {
			err = fmt.Errorf("remove store: %w", rerr)
		}
	}()
	restore, err := configure(workers, s)
	if err != nil {
		return err
	}
	defer restore()
	return fn(s)
}
