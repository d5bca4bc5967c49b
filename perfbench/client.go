package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"mcbound/internal/job"
)

// api is an HTTP client of one mcbound-server.
type api struct {
	base string
	c    *http.Client
}

func newAPI(base string, conns int) *api {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &api{base: base, c: &http.Client{Transport: tr}}
}

func (a *api) close() { a.c.CloseIdleConnections() }

// waitReady polls GET /healthz until the server answers 200.
func (a *api) waitReady(ctx context.Context, timeout time.Duration, exited <-chan struct{}) error {
	deadline := time.Now().Add(timeout)
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, a.base+"/healthz", nil)
		if resp, err := a.c.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after %v", timeout)
		}
		select {
		case <-exited:
			return fmt.Errorf("server exited before it was ready")
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (a *api) post(ctx context.Context, path, ctype string, body []byte, hdr http.Header) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", ctype)
	for k, v := range hdr {
		req.Header[k] = v
	}
	return a.c.Do(req)
}

// statusError reads a non-2xx answer into an error.
func statusError(resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
}

// ndjson renders records as the NDJSON body of POST /v1/jobs/stream.
func ndjson(jobs []*job.Job) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, j := range jobs {
		if err := enc.Encode(j); err != nil {
			panic(err) // generated records hold only finite numbers
		}
	}
	return buf.Bytes()
}

// ingest streams an NDJSON body of n records to POST /v1/jobs/stream and
// returns how many the server acknowledged as durable.
func (a *api) ingest(ctx context.Context, body []byte, n int) (int, error) {
	resp, err := a.post(ctx, "/v1/jobs/stream", "application/x-ndjson", body, nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, statusError(resp)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var f struct {
			Frame    string `json:"frame"`
			Acked    int    `json:"acked"`
			Rejected int    `json:"rejected"`
			Error    string `json:"error"`
		}
		if err := dec.Decode(&f); err != nil {
			if errors.Is(err, io.EOF) {
				return 0, fmt.Errorf("ingest: stream ended without a done frame")
			}
			return 0, fmt.Errorf("ingest: bad frame: %w", err)
		}
		switch f.Frame {
		case "error":
			return 0, fmt.Errorf("ingest: record rejected: %s", f.Error)
		case "done":
			if f.Rejected != 0 || f.Acked != n {
				return f.Acked, fmt.Errorf("ingest: %d acked, %d rejected of %d", f.Acked, f.Rejected, n)
			}
			return f.Acked, nil
		}
	}
}

// train triggers the Training Workflow at the simulated instant at.
func (a *api) train(ctx context.Context, at time.Time) (labeled int, err error) {
	body, _ := json.Marshal(map[string]string{"now": at.UTC().Format(time.RFC3339)})
	resp, err := a.post(ctx, "/v1/train", "application/json", body, nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, statusError(resp)
	}
	var rep struct {
		LabeledJobs int `json:"labeled_jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return 0, fmt.Errorf("train: bad answer: %w", err)
	}
	return rep.LabeledJobs, nil
}

type prediction struct {
	JobID string `json:"job_id"`
	Class string `json:"class"`
}

// classify posts a prepared POST /v1/classify body and returns the
// answered classes, checked to be one per job in order.
func (a *api) classify(ctx context.Context, body []byte, ids []string, reqID string) ([]string, outcome, error) {
	var hdr http.Header
	if reqID != "" {
		hdr = http.Header{"X-Request-Id": {reqID}}
	}
	resp, err := a.post(ctx, "/v1/classify", "application/json", body, hdr)
	if err != nil {
		return nil, failedIO, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, refused, statusError(resp)
	}
	var preds []prediction
	if err := json.NewDecoder(resp.Body).Decode(&preds); err != nil {
		return nil, failedIO, fmt.Errorf("classify: bad answer: %w", err)
	}
	if len(preds) != len(ids) {
		return nil, wrongAnswer, fmt.Errorf("classify: %d answers for %d jobs", len(preds), len(ids))
	}
	classes := make([]string, len(preds))
	for i, p := range preds {
		if p.JobID != ids[i] {
			return nil, wrongAnswer, fmt.Errorf("classify: answer %d is for %q, want %q", i, p.JobID, ids[i])
		}
		classes[i] = p.Class
	}
	return classes, okAnswer, nil
}

// sseSubscriber reads GET /v1/predictions/stream and records every
// prediction event it receives.
type sseSubscriber struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	events map[string]string // job id → class
	dups   int
	err    error
}

// subscribe connects and returns once the stream's headers arrived, so
// every prediction published afterwards reaches the subscriber.
func (a *api) subscribe(ctx context.Context) (*sseSubscriber, error) {
	ctx, cancel := context.WithCancel(ctx)
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, a.base+"/v1/predictions/stream", nil)
	// A client of its own: the stream holds its connection for the run.
	resp, err := (&http.Client{Transport: &http.Transport{DisableCompression: true}}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		cancel()
		return nil, statusError(resp)
	}
	s := &sseSubscriber{cancel: cancel, done: make(chan struct{}), events: map[string]string{}}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		event := ""
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: ") && event == "prediction":
				var p prediction
				err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &p)
				s.mu.Lock()
				if err != nil && s.err == nil {
					s.err = fmt.Errorf("sse: bad event: %w", err)
				}
				if _, ok := s.events[p.JobID]; ok {
					s.dups++
				}
				s.events[p.JobID] = p.Class
				s.mu.Unlock()
			case strings.HasPrefix(line, "data: ") && event != "":
				s.mu.Lock()
				if s.err == nil {
					s.err = fmt.Errorf("sse: unexpected %s event", event)
				}
				s.mu.Unlock()
			case line == "":
				event = ""
			}
		}
	}()
	return s, nil
}

// count returns how many prediction events arrived so far.
func (s *sseSubscriber) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events) + s.dups
}

// finish waits up to timeout for want events, stops the stream and
// checks that exactly the served predictions arrived.
func (s *sseSubscriber) finish(served map[string]string, timeout time.Duration) (int, error) {
	deadline := time.Now().Add(timeout)
	for s.count() < len(served) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	s.cancel()
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.events) + s.dups
	if s.err != nil {
		return n, s.err
	}
	if n != len(served) || s.dups != 0 {
		return n, fmt.Errorf("sse: %d events (%d duplicates), %d predictions served", n, s.dups, len(served))
	}
	for id, class := range served {
		if got, ok := s.events[id]; !ok || got != class {
			return n, fmt.Errorf("sse: job %s: event class %q, served %q", id, got, class)
		}
	}
	return n, nil
}

// reqID names request i of a run for span correlation.
func reqID(i int) string { return "pb" + strconv.Itoa(i) }
