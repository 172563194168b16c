package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"yap/internal/core"
	"yap/internal/fleetcache"
	"yap/internal/service"
)

// This file is the client half of the fleet cache: the typed batch
// endpoint wrapper, a helper for reading one member's cache entry, and
// the HTTP implementation of fleetcache.Transport that cmd/yapserve
// wires between fleet members.

// EvaluateBatch calls POST /v1/evaluate/batch: N parameter points over a
// shared base, evaluated through the server's fleet cache tier. Points
// come back in index order with per-point error isolation — check
// resp.Failed and each point's Error. The call is idempotent (analytic
// evaluation is a pure function), so the client's full retry schedule
// applies.
func (c *Client) EvaluateBatch(ctx context.Context, req service.BatchEvaluateRequest) (*service.BatchEvaluateResponse, error) {
	var resp service.BatchEvaluateResponse
	if err := c.do(ctx, "/v1/evaluate/batch", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// GetCached calls GET /v1/cache/{mode}/{hash} — one member's local cache
// entry, never a computation. A cold member answers an *APIError with
// code "cache_miss" (404).
func (c *Client) GetCached(ctx context.Context, mode string, hash uint64) (*service.CacheEntryResponse, error) {
	var resp service.CacheEntryResponse
	if err := c.doMethod(ctx, http.MethodGet, cachePath(mode, hash), nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func cachePath(mode string, hash uint64) string {
	return fmt.Sprintf("/v1/cache/%s/%016x", mode, hash)
}

// CacheTransport is the HTTP fleetcache.Transport: GetCached for peer
// fetch, a PUT of the same path for owner-warming offers. Each call is one
// exchange with the peer, never retried — the fleet cache runs its own
// tight deadline and per-peer breaker, and a retried peer fetch is worse
// than a local compute. The zero value is usable.
type CacheTransport struct{}

var _ fleetcache.Transport = (*CacheTransport)(nil)

// peerClient returns a retry-free Client for one fleet member.
func peerClient(peer string) (*Client, error) {
	return New(Config{BaseURL: peer, MaxAttempts: 1})
}

// FetchCached implements fleetcache.Transport. A 404 from the peer is
// fleetcache.ErrPeerMiss (cold cache — healthy); any other failure is a
// peer error the caller's breaker counts.
func (t *CacheTransport) FetchCached(ctx context.Context, peer, mode string, hash uint64) (fleetcache.Entry, error) {
	c, err := peerClient(peer)
	if err != nil {
		return fleetcache.Entry{}, err
	}
	e, err := c.GetCached(ctx, mode, hash)
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound {
		return fleetcache.Entry{}, fleetcache.ErrPeerMiss
	}
	if err != nil {
		return fleetcache.Entry{}, fmt.Errorf("client: cache fetch %s: %w", peer, err)
	}
	return fleetcache.Entry{
		Mode:   mode,
		Hash:   hash,
		Params: e.Params,
		Breakdown: core.Breakdown{
			Overlay: e.Breakdown.Overlay,
			Recess:  e.Breakdown.Recess,
			Defect:  e.Breakdown.Defect,
			Total:   e.Breakdown.Total,
		},
	}, nil
}

// OfferCached implements fleetcache.Transport: PUT the computed entry to
// its owner. The owner re-verifies the hash; a 400 here means this
// member and the owner disagree on canonical hashing and is surfaced as
// an error.
func (t *CacheTransport) OfferCached(ctx context.Context, peer string, e fleetcache.Entry) error {
	c, err := peerClient(peer)
	if err != nil {
		return err
	}
	err = c.doMethod(ctx, http.MethodPut, cachePath(e.Mode, e.Hash), service.CachePutRequest{
		Params: e.Params,
		Breakdown: service.Breakdown{
			Overlay: e.Breakdown.Overlay,
			Recess:  e.Breakdown.Recess,
			Defect:  e.Breakdown.Defect,
			Total:   e.Breakdown.Total,
		},
	}, nil)
	if err != nil {
		return fmt.Errorf("client: cache offer %s: %w", peer, err)
	}
	return nil
}
