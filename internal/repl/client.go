package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"mcbound/internal/resilience"
	"mcbound/internal/wal"
)

// ErrRedirectDenied re-exports the resilience sentinel so replication
// callers can test for an allowlist-refused redirect without importing
// the resilience package.
var ErrRedirectDenied = resilience.ErrRedirectDenied

// EpochHeader carries the leader's fencing epoch on every replication
// response, so a follower can reject bytes from a deposed leader even
// when the body itself is valid.
const EpochHeader = "X-MCBound-Repl-Epoch"

// ErrGone marks a 404 from the leader: the requested file was compacted
// away (or never existed). The follower re-reads the manifest and, when
// it fell behind the compaction horizon, re-syncs from the newest
// snapshot instead of retrying the fetch.
var ErrGone = errors.New("repl: file gone on leader")

// ErrSourceNotLeader marks a 421 from the target: it is itself a
// follower and cannot serve the replication stream.
var ErrSourceNotLeader = errors.New("repl: source is not a leader")

// ClientConfig tunes the replication client. Zero values select the
// serving defaults (the same retry/breaker posture as the fetch stack).
type ClientConfig struct {
	// BaseURL is the leader's address, e.g. "http://leader:8080".
	BaseURL string
	// Retry is the per-request retry policy (resilience defaults apply).
	Retry resilience.Policy
	// Breaker guards the leader connection as one health state.
	Breaker resilience.BreakerConfig
	// Seed drives the deterministic backoff jitter.
	Seed uint64
	// Budget, when non-nil, throttles retries globally: every retry
	// beyond a request's first attempt spends a token, refilled as a
	// fraction of successes. Share one bucket across clients to cap the
	// process's total retry amplification. Nil leaves retries unthrottled.
	Budget *resilience.Budget
	// Allowed, when non-nil, is the membership allowlist for 421
	// Location redirects: a redirect whose base fails it is a hard error,
	// never followed. Nil admits any target (single-leader deployments
	// without configured membership).
	Allowed func(base string) bool
}

// maxRedirectHops bounds how many 421 Location redirects one request
// will chase before giving up — long enough to cross a promotion chain,
// short enough that two confused followers pointing at each other fail
// fast instead of ping-ponging.
const maxRedirectHops = 3

// Client fetches the replication surface of a leader through the same
// retry/breaker discipline as the fetch backend: jittered exponential
// retries per request, one circuit breaker for the whole connection.
// The base URL is mutable: a 421 not_leader answer carrying a Location
// redirect is followed (bounded hops) and the working leader is adopted
// permanently, so clients survive promotions without a restart.
type Client struct {
	mu      sync.RWMutex
	base    string
	hc      *http.Client
	retr    *resilience.Retrier
	brk     *resilience.Breaker
	allowed func(base string) bool
}

// NewClient builds a replication client for the leader at cfg.BaseURL.
func NewClient(cfg ClientConfig) *Client {
	return &Client{
		base:    strings.TrimRight(cfg.BaseURL, "/"),
		hc:      &http.Client{Timeout: 30 * time.Second},
		retr:    resilience.NewRetrier(cfg.Retry, cfg.Seed).WithBudget(cfg.Budget),
		brk:     resilience.NewBreaker(cfg.Breaker),
		allowed: cfg.Allowed,
	}
}

// Breaker exposes the circuit breaker (health endpoints, telemetry).
func (c *Client) Breaker() *resilience.Breaker { return c.brk }

// Base returns the current target (the leader as this client knows it).
func (c *Client) Base() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.base
}

// Redirect repoints the client at a new leader and resets the breaker,
// so failures charged to the dead leader do not block the live one. The
// elector calls it on leader change; get() calls it after a successful
// 421-redirect chase. A URL that fails the configured allowlist is
// dropped and the base stays put: a leader URL learned from peers gets
// the same membership check as a 421 Location.
func (c *Client) Redirect(url string) {
	url = strings.TrimRight(url, "/")
	if url == "" || (c.allowed != nil && !c.allowed(url)) {
		return
	}
	c.mu.Lock()
	changed := c.base != url
	if changed {
		c.base = url
	}
	c.mu.Unlock()
	if changed {
		c.brk.Reset()
	}
}

// do runs one replication request: breaker admission, then the retry
// loop. Permanent answers (404, 421) do not count against the breaker.
func do[T any](ctx context.Context, c *Client, op func(ctx context.Context) (T, error)) (T, error) {
	if err := c.brk.Allow(); err != nil {
		var zero T
		return zero, err
	}
	v, err := resilience.Do(ctx, c.retr, op)
	if err != nil && resilience.IsPermanent(err) && (errors.Is(err, ErrGone) || errors.Is(err, ErrSourceNotLeader)) {
		c.brk.Record(nil) // the leader answered; the answer was "no"
	} else {
		c.brk.Record(err)
	}
	return v, err
}

// get issues one GET and classifies the status code for the retrier. A
// 421 not_leader carrying a Location redirect is chased through the
// shared resilience.Chase (bounded hops, loop detection, membership
// allowlist); when the chase lands on a node that answers, that node is
// adopted as the new base for every later request. A redirect pointing
// outside the configured membership is a permanent ErrRedirectDenied —
// a deposed or compromised node must not be able to steer replication
// traffic at an arbitrary address.
func (c *Client) get(ctx context.Context, path string) ([]byte, http.Header, error) {
	base := c.Base()
	chase := resilience.NewChase(base, maxRedirectHops, c.allowed)
	for hop := 0; ; hop++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
		if err != nil {
			return nil, nil, resilience.Permanent(err)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return nil, nil, err
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, wal.MaxChunkBytes+4096))
		resp.Body.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("repl: read response: %w", err)
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			if hop > 0 {
				c.Redirect(base)
			}
			return body, resp.Header, nil
		case resp.StatusCode == http.StatusNotFound:
			return nil, nil, resilience.Permanent(fmt.Errorf("%w: %s", ErrGone, path))
		case resp.StatusCode == http.StatusMisdirectedRequest:
			next, ok, cerr := chase.Follow(resp.Header.Get("Location"))
			if cerr != nil {
				return nil, nil, resilience.Permanent(fmt.Errorf("repl: %s: %w", base, cerr))
			}
			if ok {
				base = next
				continue
			}
			return nil, nil, resilience.Permanent(fmt.Errorf("%w: %s", ErrSourceNotLeader, base))
		case resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests:
			return nil, nil, fmt.Errorf("repl: %s: status %d", path, resp.StatusCode)
		default:
			return nil, nil, resilience.Permanent(fmt.Errorf("repl: %s: status %d", path, resp.StatusCode))
		}
	}
}

// Manifest fetches the leader's replication manifest.
func (c *Client) Manifest(ctx context.Context) (wal.Manifest, error) {
	return do(ctx, c, func(ctx context.Context) (wal.Manifest, error) {
		body, _, err := c.get(ctx, "/v1/wal/segments")
		if err != nil {
			return wal.Manifest{}, err
		}
		var m wal.Manifest
		if err := json.Unmarshal(body, &m); err != nil {
			return wal.Manifest{}, fmt.Errorf("repl: decode manifest: %w", err)
		}
		return m, nil
	})
}

// Chunk fetches up to max bytes of a replicated file starting at off and
// returns the bytes plus the epoch the leader stamped on the response.
func (c *Client) Chunk(ctx context.Context, name string, off, max int64) ([]byte, uint64, error) {
	type chunk struct {
		data  []byte
		epoch uint64
	}
	path := "/v1/wal/segments/" + url.PathEscape(name) +
		"?offset=" + strconv.FormatInt(off, 10) + "&limit=" + strconv.FormatInt(max, 10)
	ch, err := do(ctx, c, func(ctx context.Context) (chunk, error) {
		body, hdr, err := c.get(ctx, path)
		if err != nil {
			return chunk{}, err
		}
		epoch, perr := strconv.ParseUint(hdr.Get(EpochHeader), 10, 64)
		if perr != nil {
			return chunk{}, fmt.Errorf("repl: bad %s header %q", EpochHeader, hdr.Get(EpochHeader))
		}
		return chunk{data: body, epoch: epoch}, nil
	})
	return ch.data, ch.epoch, err
}
