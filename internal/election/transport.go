package election

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"mcbound/internal/resilience"
	"mcbound/internal/wal"
)

// AckRequest is the POST /v1/lease/ack body. With Claim false it is a
// follower's heartbeat acknowledgment — proof it heard the leader's
// lease this round, carrying its position for the leader's lag view.
// With Claim true it is a vote request: the sender asks the receiver to
// grant it leadership at Term (which must exceed every term the
// receiver has participated in).
type AckRequest struct {
	NodeID     string `json:"node_id"`
	URL        string `json:"url"`
	Term       uint64 `json:"term"`
	AppliedSeq uint64 `json:"applied_seq"`
	Claim      bool   `json:"claim,omitempty"`
}

// AckResponse answers an ack or a vote request. Term is the highest
// term the responder has participated in; Lease (leaders only) carries
// the current lease so a heartbeat ack doubles as a renewal read.
type AckResponse struct {
	NodeID     string     `json:"node_id"`
	Granted    bool       `json:"granted"`
	Term       uint64     `json:"term"`
	AppliedSeq uint64     `json:"applied_seq"`
	Reason     string     `json:"reason,omitempty"`
	LeaderURL  string     `json:"leader_url,omitempty"`
	Lease      *wal.Lease `json:"lease,omitempty"`
}

// Transport carries lease reads and acks between electors. The chaos
// suite substitutes a fault-injecting implementation (blackholes,
// asymmetric partitions) while the WAL-shipping path stays on its own
// client — heartbeat loss and data-plane loss are independent failures.
type Transport interface {
	// GetLease fetches the lease document the node at baseURL serves.
	GetLease(ctx context.Context, baseURL string) (wal.Lease, error)
	// Ack posts a heartbeat ack or vote request to the node at baseURL.
	Ack(ctx context.Context, baseURL string, req AckRequest) (AckResponse, error)
}

// HTTPTransport is the production Transport: the GET /v1/lease and
// POST /v1/lease/ack surface, with one cheap retry per call through the
// shared resilience layer (a single dropped packet should not count as
// a missed heartbeat; a down leader still fails within one timeout).
type HTTPTransport struct {
	hc   *http.Client
	retr *resilience.Retrier
}

// NewHTTPTransport builds the production transport; seed drives the
// retry backoff jitter.
func NewHTTPTransport(seed uint64) *HTTPTransport {
	return &HTTPTransport{
		hc: &http.Client{Timeout: requestTimeout},
		retr: resilience.NewRetrier(resilience.Policy{
			MaxAttempts: 2,
			BaseDelay:   10 * time.Millisecond,
			MaxDelay:    50 * time.Millisecond,
			Jitter:      0.2,
		}, seed),
	}
}

// GetLease implements Transport.
func (t *HTTPTransport) GetLease(ctx context.Context, baseURL string) (wal.Lease, error) {
	return resilience.Do(ctx, t.retr, func(ctx context.Context) (wal.Lease, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/lease", nil)
		if err != nil {
			return wal.Lease{}, resilience.Permanent(err)
		}
		resp, err := t.hc.Do(req)
		if err != nil {
			return wal.Lease{}, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if err != nil {
			return wal.Lease{}, err
		}
		if resp.StatusCode != http.StatusOK {
			return wal.Lease{}, fmt.Errorf("election: %s/v1/lease: status %d", baseURL, resp.StatusCode)
		}
		var doc struct {
			Lease wal.Lease `json:"lease"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return wal.Lease{}, fmt.Errorf("election: decode lease: %w", err)
		}
		return doc.Lease, nil
	})
}

// Ack implements Transport.
func (t *HTTPTransport) Ack(ctx context.Context, baseURL string, ar AckRequest) (AckResponse, error) {
	payload, err := json.Marshal(ar)
	if err != nil {
		return AckResponse{}, err
	}
	return resilience.Do(ctx, t.retr, func(ctx context.Context) (AckResponse, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/lease/ack", bytes.NewReader(payload))
		if err != nil {
			return AckResponse{}, resilience.Permanent(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := t.hc.Do(req)
		if err != nil {
			return AckResponse{}, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if err != nil {
			return AckResponse{}, err
		}
		if resp.StatusCode != http.StatusOK {
			return AckResponse{}, fmt.Errorf("election: %s/v1/lease/ack: status %d", baseURL, resp.StatusCode)
		}
		var out AckResponse
		if err := json.Unmarshal(body, &out); err != nil {
			return AckResponse{}, fmt.Errorf("election: decode ack: %w", err)
		}
		return out, nil
	})
}
