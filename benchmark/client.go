package main

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"time"
)

// outcome classifies one response. Everything but outcomeOK counts as
// failed; an oracle mismatch is found later, when the answer's digest
// is compared.
type outcome uint8

const (
	outcomeOK outcome = iota
	outcomeRejected
	outcomeStatus
	outcomeTransport
	outcomeMalformed
	outcomeTruncated
)

func (o outcome) String() string {
	return [...]string{"ok", "rejected (503)", "unexpected status", "transport error", "malformed body", "truncated answer"}[o]
}

// observed is what the client keeps of one response.
type observed struct {
	Outcome outcome
	Bytes   int
	Digest  digest
}

// httpClient drives one server over a fixed number of keep-alive
// connections; each connection index has its own reusable body buffer.
type httpClient struct {
	c    *http.Client
	base string
	bufs []bytes.Buffer
}

func newHTTPClient(addr string, conns int) *httpClient {
	return &httpClient{
		c: &http.Client{
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
			Timeout: 30 * time.Second,
		},
		base: "http://" + addr,
		bufs: make([]bytes.Buffer, conns),
	}
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

const (
	queryType  = "application/sparql-query"
	updateType = "application/sparql-update"
)

// response is one HTTP exchange as read off the wire; Body aliases the
// connection's buffer and is valid until the connection's next request.
type response struct {
	Status int
	Body   []byte
	Err    error
}

// roundTrip posts text on connection conn and reads the whole response.
func (h *httpClient) roundTrip(conn int, path, contentType, text string) response {
	resp, err := h.c.Post(h.base+path, contentType, strings.NewReader(text))
	if err != nil {
		return response{Err: err}
	}
	buf := &h.bufs[conn]
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return response{Status: resp.StatusCode, Body: buf.Bytes(), Err: err}
}

// observe classifies a response; a query's body is digested.
func (r response) observe(results bool) observed {
	o := observed{Bytes: len(r.Body)}
	switch {
	case r.Err != nil:
		o.Outcome = outcomeTransport
	case r.Status == http.StatusServiceUnavailable:
		o.Outcome = outcomeRejected
	case r.Status != http.StatusOK:
		o.Outcome = outcomeStatus
	case results:
		d, err := digestResponse(r.Body)
		o.Digest = d
		if err != nil {
			o.Outcome = outcomeMalformed
		} else if d.Truncated {
			o.Outcome = outcomeTruncated
		}
	}
	return o
}

// query posts a SPARQL query on connection conn and digests the answer.
func (h *httpClient) query(conn int, text string) observed {
	return h.roundTrip(conn, "/sparql", queryType, text).observe(true)
}

// update posts a SPARQL UPDATE request.
func (h *httpClient) update(conn int, text string) observed {
	return h.roundTrip(conn, "/update", updateType, text).observe(false)
}

// ask runs an ASK query and reports whether it answered want.
func (h *httpClient) ask(conn int, text string, want bool) error {
	o := h.query(conn, text)
	if o.Outcome != outcomeOK || o.Digest.Boolean < 0 {
		return fmt.Errorf("ASK failed (%v): %s", o.Outcome, text)
	}
	if got := o.Digest.Boolean == 1; got != want {
		return fmt.Errorf("ASK answered %v, want %v: %s", got, want, text)
	}
	return nil
}
