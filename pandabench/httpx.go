package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"panda/internal/server"
)

// Span linkage across the loopback hop: the client sends its op id and
// the id of its request span, and the harness parents the server span.
const (
	hdrOp   = "X-Pandabench-Op"
	hdrSpan = "X-Pandabench-Span"
)

// harness serves the program's HTTP handler (server.Server) on loopback.
// The handler is swapped per program instance, so one listener and one
// client connection pool outlive the set-ups. When a tracer is installed
// the harness spans each traced request's ServeHTTP call: the boundary of
// the server layer seen from outside.
type harness struct {
	hs     *http.Server
	srv    atomic.Pointer[server.Server]
	tr     atomic.Pointer[tracer]
	base   string
	client *http.Client
	done   chan struct{}
}

func startHarness(conns int) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &harness{base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	h.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	h.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
	go func() {
		defer close(h.done)
		h.hs.Serve(ln)
	}()
	return h, nil
}

func (h *harness) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s := h.srv.Load()
	tr := h.tr.Load()
	op, _ := strconv.ParseInt(r.Header.Get(hdrOp), 10, 64)
	if tr == nil || op == 0 {
		s.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 32)
	id := tr.start(op, int32(parent), "server", "server.Server.ServeHTTP")
	s.ServeHTTP(w, r)
	tr.finish(id)
}

// close stops the listener and waits for the serve loop to end.
func (h *harness) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	h.hs.Shutdown(ctx)
	h.hs.Close()
	<-h.done
	h.client.CloseIdleConnections()
}

// post sends one request and reads the whole response. A non-zero op
// links the server span to the client span parent.
func (h *harness) post(ctx context.Context, path string, body []byte, op int64, parent int32) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if op != 0 {
		req.Header.Set(hdrOp, strconv.FormatInt(op, 10))
		req.Header.Set(hdrSpan, strconv.Itoa(int(parent)))
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// scrape reads the unlabelled counters of GET /metrics.
func (h *harness) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		if name, v, ok := strings.Cut(line, " "); ok {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				out[name] = f
			}
		}
	}
	return out, sc.Err()
}

// queryBody is the /v1/query request body for src.
func queryBody(src string) []byte {
	b, _ := json.Marshal(map[string]string{"query": src})
	return b
}

// detPrefix is the deterministic part of a /v1/query response: everything
// before the signature and the wall-clock timings, which pandad writes
// last so that the prefix stays byte-stable across runs.
func detPrefix(body []byte) []byte {
	for _, key := range []string{`,"signature":`, `,"timings":`} {
		if i := bytes.Index(body, []byte(key)); i >= 0 {
			body = body[:i]
		}
	}
	return body
}
