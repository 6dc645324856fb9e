package repl

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"rdfshapes/internal/wal"
)

// Primary serves the log-shipping endpoints over a Source. Mount its
// handlers at WALPath and SnapshotPath (internal/server does this for
// every durable, non-replica DB).
type Primary struct {
	src Source
}

// NewPrimary wraps a shipping source (typically the DB's *wal.Manager).
func NewPrimary(src Source) *Primary { return &Primary{src: src} }

// ServeWAL answers GET /repl/wal?gen=G&from=S with wal-G.log's header
// and its records after S. The response carries the primary's current
// generation and the sequence number the body reaches in headers, so a
// caught-up follower learns it is caught up from a header-only body and
// a follower on an older generation learns to move on. A pruned
// generation answers 410 Gone — the follower's cue to re-bootstrap from
// /repl/snapshot.
func (p *Primary) ServeWAL(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	gen, err := strconv.ParseUint(r.URL.Query().Get("gen"), 10, 64)
	if err != nil || gen == 0 {
		http.Error(w, "missing or invalid 'gen' parameter", http.StatusBadRequest)
		return
	}
	from := uint64(0)
	if s := r.URL.Query().Get("from"); s != "" {
		if from, err = strconv.ParseUint(s, 10, 64); err != nil {
			http.Error(w, "invalid 'from' parameter", http.StatusBadRequest)
			return
		}
	}
	seg, curGen, target, err := p.src.ReadSegment(gen, from)
	w.Header().Set(HeaderGeneration, strconv.FormatUint(curGen, 10))
	w.Header().Set(HeaderSeq, strconv.FormatUint(target, 10))
	switch {
	case err == nil:
	case errors.Is(err, wal.ErrGenPruned):
		http.Error(w, err.Error(), http.StatusGone)
		return
	case errors.Is(err, wal.ErrClosed):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(seg)
}

// ServeSnapshot answers GET /repl/snapshot with the current checkpoint
// snapshot; the generation header tells the follower where to resume
// tailing — (gen, 0) pairs exactly with the snapshot contents.
func (p *Primary) ServeSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	gen, data, err := p.src.SnapshotData()
	if err != nil {
		if errors.Is(err, wal.ErrClosed) {
			w.Header().Set("Retry-After", "1")
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set(HeaderGeneration, strconv.FormatUint(gen, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(len(data)))
	_, _ = w.Write(data)
}
