package shard

import (
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"

	"rdfshapes/internal/rdf"
	"rdfshapes/internal/store"
)

// HandlerStats counts scan-endpoint activity as atomics, sampled at
// scrape time by the server's /metrics registration.
type HandlerStats struct {
	FramedScans atomic.Int64 // scans served with the framed protocol
	Frames      atomic.Int64 // data+EOS frames written
	Rows        atomic.Int64 // triples written
	Aborts      atomic.Int64 // scans cut short by a client write error
}

// HandlerConfig tunes the scan endpoint. The zero value selects
// DefaultFrameBytes and no stats.
type HandlerConfig struct {
	// FrameBytes is the target framed-protocol payload size; clamped to
	// MaxFramePayload.
	FrameBytes int
	// Stats, when non-nil, receives endpoint counters.
	Stats *HandlerStats
}

// Handler serves the shard-scan wire protocol over src with default
// configuration. src is invoked once per request so every response
// reads one consistent snapshot. Pattern positions arrive as
// N-Triples-encoded terms in the s, p, and o query parameters; an empty
// or absent parameter is a wildcard, and a term unknown to the
// dictionary yields an empty result (it cannot match anything).
//
// The body is the framed checksummed stream (magic, CRC32C frames, EOS
// row-count trailer — see frame.go) and nothing else: a request whose
// Accept header does not name ScanContentType gets 406, because any
// unframed body could be cut on a line boundary without the reader
// being able to tell.
func Handler(src func() Source) http.Handler {
	return HandlerWithConfig(src, HandlerConfig{})
}

// HandlerWithConfig is Handler with explicit framing and stats tuning.
func HandlerWithConfig(src func() Source, cfg HandlerConfig) http.Handler {
	stats := cfg.Stats
	if stats == nil {
		stats = &HandlerStats{}
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		if !strings.Contains(r.Header.Get("Accept"), ScanContentType) {
			http.Error(w, "Accept must name "+ScanContentType, http.StatusNotAcceptable)
			return
		}
		view := src()
		dict := view.Dict()
		var pat store.IDTriple
		for _, pos := range []struct {
			param string
			id    *store.ID
		}{
			{"s", &pat.S}, {"p", &pat.P}, {"o", &pat.O},
		} {
			raw := r.URL.Query().Get(pos.param)
			if raw == "" {
				continue
			}
			term, err := rdf.ParseTerm(raw)
			if err != nil {
				http.Error(w, fmt.Sprintf("bad %s term: %v", pos.param, err), http.StatusBadRequest)
				return
			}
			id, ok := dict.Lookup(term)
			if !ok {
				// Unknown term: provably no matches. The reply must still
				// be a complete stream (magic + EOS carrying zero rows) so
				// the client can tell "empty" from "cut".
				serveEmptyFramed(w, stats)
				return
			}
			*pos.id = id
		}
		serveFramed(w, view, dict, pat, cfg.FrameBytes, stats)
	})
}

func serveEmptyFramed(w http.ResponseWriter, stats *HandlerStats) {
	stats.FramedScans.Add(1)
	w.Header().Set("Content-Type", ScanContentType)
	fw := newFrameWriter(w, 0)
	if err := fw.writeHeader(); err == nil {
		if err := fw.close(); err != nil {
			stats.Aborts.Add(1)
		}
	} else {
		stats.Aborts.Add(1)
	}
	stats.Frames.Add(fw.frames)
}

func serveFramed(w http.ResponseWriter, view Source, dict *store.Dict, pat store.IDTriple, frameBytes int, stats *HandlerStats) {
	stats.FramedScans.Add(1)
	w.Header().Set("Content-Type", ScanContentType)
	flusher, _ := w.(http.Flusher)
	fw := newFrameWriter(w, frameBytes)
	if err := fw.writeHeader(); err != nil {
		stats.Aborts.Add(1)
		return
	}
	aborted := false
	var line []byte
	view.Scan(pat, func(t store.IDTriple) bool {
		line = line[:0]
		line = append(line, dict.Term(t.S).String()...)
		line = append(line, ' ')
		line = append(line, dict.Term(t.P).String()...)
		line = append(line, ' ')
		line = append(line, dict.Term(t.O).String()...)
		line = append(line, " .\n"...)
		flushed, err := fw.addLine(line)
		if err != nil {
			aborted = true
			stats.Aborts.Add(1)
			return false
		}
		if flushed && flusher != nil {
			// Flush per frame so the client streams instead of waiting
			// for the whole body; each flushed frame is independently
			// verifiable.
			flusher.Flush()
		}
		stats.Rows.Add(1)
		return true
	})
	if !aborted {
		if err := fw.close(); err != nil {
			stats.Aborts.Add(1)
		} else if flusher != nil {
			flusher.Flush()
		}
	}
	stats.Frames.Add(fw.frames)
}
