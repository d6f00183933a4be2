package serve

// warm.go is the server side of warm-started re-synthesis: an index of
// kept final checkpoints grouped by "warm family" — same job kind and
// normalized options, any model — so a query for a disturbed plant can
// replay the witness kept by the model it drifted away from, plus the
// checkpoint-directory GC that keeps the kept files bounded.

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"guidedta/internal/snapshot"
)

// warmGroup is the warm-family identity of a checkpoint: the job kind
// (stamped into the checkpoint's Meta by execute) plus the hash of the
// canonical options JSON the engine stamped. Two keys in one group ran
// the same kind of query under byte-identical options and differ only in
// the model — exactly the "small delta" a warm start may bridge, since
// the engine replays a seed witness on the new model before reporting it.
func warmGroup(meta string, options []byte) string {
	h := sha256.Sum256(options)
	return meta + "|" + hex.EncodeToString(h[:])
}

// warmIndex maps warm families to the cache keys holding a kept final
// checkpoint. All methods are safe for concurrent use.
type warmIndex struct {
	mu       sync.Mutex
	byGroup  map[string][]string // group -> keys, insertion order (newest last)
	keyGroup map[string]string
}

func newWarmIndex() *warmIndex {
	return &warmIndex{
		byGroup:  make(map[string][]string),
		keyGroup: make(map[string]string),
	}
}

// scan indexes every readable final checkpoint in dir (server startup:
// the index survives restarts because the files do). Non-final files —
// aborted-run resume checkpoints — are left to the exact-key resume path.
func (w *warmIndex) scan(dir string) int {
	names, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		return 0
	}
	n := 0
	for _, name := range names {
		hdr, err := snapshot.ReadHeader(name)
		if err != nil || !hdr.Final || hdr.Meta == "" {
			continue
		}
		key := strings.TrimSuffix(filepath.Base(name), ".ckpt")
		w.record(key, warmGroup(hdr.Meta, hdr.Options))
		n++
	}
	return n
}

// record registers a kept final checkpoint under its warm family.
func (w *warmIndex) record(key, group string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.keyGroup[key] == group {
		return
	}
	w.forgetLocked(key)
	w.keyGroup[key] = group
	w.byGroup[group] = append(w.byGroup[group], key)
}

// lookup returns the kept path to warm-start key from: key's own when it
// has one, else the family's most recently recorded one (the near miss
// that drifted least: same kind and options, another model), or "" when
// the family is empty. Every kept path is recorded, at found time and by
// the startup scan, so the index alone decides.
func (w *warmIndex) lookup(group, key string) string {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.keyGroup[key] == group {
		return key
	}
	if keys := w.byGroup[group]; len(keys) > 0 {
		return keys[len(keys)-1]
	}
	return ""
}

func (w *warmIndex) forget(key string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.forgetLocked(key)
}

func (w *warmIndex) forgetLocked(key string) {
	group, ok := w.keyGroup[key]
	if !ok {
		return
	}
	delete(w.keyGroup, key)
	keys := w.byGroup[group]
	for i, k := range keys {
		if k == key {
			w.byGroup[group] = append(keys[:i], keys[i+1:]...)
			break
		}
	}
	if len(w.byGroup[group]) == 0 {
		delete(w.byGroup, group)
	}
}

// gcCheckpoints bounds the checkpoint directory: files older than
// Config.CheckpointGCAge or beyond the CheckpointGCMax newest are
// deleted, except those referenced by in-flight executions. Runs at
// startup, after a drain, on the gcLoop timer, and when recording a kept
// final snapshot overflows the count bound — so evicted cache keys no
// longer leak their checkpoints forever, even on a server that never
// drains. Sweeps are serialized; each resyncs the approximate file count.
func (s *Server) gcCheckpoints() {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	names, err := filepath.Glob(filepath.Join(s.cfg.CheckpointDir, "*.ckpt"))
	if err != nil || len(names) == 0 {
		s.ckptFiles.Store(0)
		return
	}
	type ckptFile struct {
		path string
		key  string
		mod  int64
	}
	files := make([]ckptFile, 0, len(names))
	for _, name := range names {
		fi, err := os.Stat(name)
		if err != nil {
			continue
		}
		files = append(files, ckptFile{
			path: name,
			key:  strings.TrimSuffix(filepath.Base(name), ".ckpt"),
			mod:  fi.ModTime().UnixNano(),
		})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod > files[j].mod }) // newest first
	inflight := s.cache.inflightKeys()
	cutoff := int64(0)
	if age := s.cfg.CheckpointGCAge; age > 0 {
		cutoff = time.Now().UnixNano() - age.Nanoseconds()
	}
	removed := 0
	for i, f := range files {
		if inflight[f.key] {
			continue
		}
		if i < s.cfg.CheckpointGCMax && f.mod >= cutoff {
			continue
		}
		if os.Remove(f.path) == nil {
			removed++
			if s.warm != nil {
				s.warm.forget(f.key)
			}
		}
	}
	s.ckptFiles.Store(int64(len(files) - removed))
	if removed > 0 {
		s.logf("checkpoint gc: removed %d of %d file(s)", removed, len(files))
	}
}

// gcLoop sweeps the checkpoint directory every Config.CheckpointGCEvery
// until Drain, so age-based GC happens on a live server too (the kept
// final snapshots of a never-draining deployment would otherwise outlive
// CheckpointGCAge until the next restart).
func (s *Server) gcLoop() {
	t := time.NewTicker(s.cfg.CheckpointGCEvery)
	defer t.Stop()
	for {
		select {
		case <-s.gcStop:
			return
		case <-t.C:
			s.gcCheckpoints()
		}
	}
}
