package client

import (
	"context"
	"net/http"

	"critload/pkg/api"
)

// Classification wire types; see package api for field documentation.
type (
	Root            = api.Root
	Load            = api.Load
	Kernel          = api.Kernel
	ClassifyResult  = api.ClassifyResult
	BatchItem       = api.BatchItem
	BatchItemResult = api.BatchItemResult
	BatchResult     = api.BatchResult
)

// Classify classifies every global load in one PTX-subset source.
func (c *Client) Classify(ctx context.Context, ptxSource string) (*ClassifyResult, error) {
	var out ClassifyResult
	err := c.do(ctx, "classify", http.MethodPost, "/v1/classify", nil,
		api.PTXRequest{PTX: ptxSource}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// ClassifyFamily classifies a parameterized family instance: the daemon
// lowers the spec to its kernel and classifies every global load. Spec
// problems (unknown family, out-of-range knob) surface as 400 APIErrors.
func (c *Client) ClassifyFamily(ctx context.Context, spec FamilySpec) (*ClassifyResult, error) {
	var out ClassifyResult
	err := c.do(ctx, "classify_family", http.MethodPost, "/v1/classify", nil,
		api.ClassifyRequest{Family: &spec}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// ClassifyBatch classifies many sources in one request, amortizing HTTP
// overhead on the classify hot path. The batch is validated client-side
// against the same bounds the server enforces (at most api.MaxBatchItems
// items, unique non-empty IDs) so an invalid batch never costs a round
// trip.
func (c *Client) ClassifyBatch(ctx context.Context, items []BatchItem) (*BatchResult, error) {
	if err := api.ValidateBatchSize(len(items)); err != nil {
		return nil, err
	}
	if err := api.ValidateBatchIDs(items); err != nil {
		return nil, err
	}
	var out BatchResult
	err := c.do(ctx, "classify_batch", http.MethodPost, "/v1/classify/batch", nil,
		api.BatchRequest{Items: items}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}
