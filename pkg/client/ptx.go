package client

import (
	"context"
	"net/http"

	"critload/pkg/api"
)

// Raw-PTX wire types; see package api for field documentation.
type (
	Diagnostic = api.Diagnostic
	PTXKernel  = api.PTXKernel
	PTXResult  = api.PTXResult
)

// SubmitPTX validates a raw .ptx program against the daemon's PTX-subset
// grammar and classifies every global load. A malformed program surfaces as
// a 422 APIError whose Diagnostics carry the per-line failures.
func (c *Client) SubmitPTX(ctx context.Context, ptxSource string) (*PTXResult, error) {
	var out PTXResult
	err := c.do(ctx, "ptx_submit", http.MethodPost, "/v1/ptx", nil,
		api.PTXRequest{PTX: ptxSource}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}
