package api

import (
	"errors"
	"fmt"
	"net/http"
)

// ClassifyRequest is the JSON body of POST /v1/classify: a PTX-subset source
// or a family spec, exactly one of the two. Clients may also send the raw
// source directly with a text/* content type.
type ClassifyRequest struct {
	PTX    string      `json:"ptx,omitempty"`
	Family *FamilySpec `json:"family,omitempty"`
}

// Root is one primitive contributor to a load address (a kernel parameter,
// a special register, ...).
type Root struct {
	Kind string `json:"kind"`
	Name string `json:"name,omitempty"`
}

// Load is the classification of one global load instruction.
type Load struct {
	PC    string `json:"pc"`
	Inst  string `json:"inst"`
	Class string `json:"class"`
	Roots []Root `json:"roots"`
}

// Kernel is one kernel's classification result.
type Kernel struct {
	Name             string `json:"name"`
	Deterministic    int    `json:"deterministic"`
	NonDeterministic int    `json:"non_deterministic"`
	Loads            []Load `json:"loads"`
}

// ClassifyResult is a full program classification.
type ClassifyResult struct {
	Kernels []Kernel `json:"kernels"`
}

// BatchRequest is the JSON body of POST /v1/classify/batch.
type BatchRequest struct {
	Items []BatchItem `json:"items"`
}

// BatchItem is one kernel source in a batch classify request. ID is an
// optional correlation handle; results come back in request order either
// way. Non-empty IDs must be unique within the batch.
type BatchItem struct {
	ID  string `json:"id,omitempty"`
	PTX string `json:"ptx"`
}

// BatchItemResult is one item's outcome: Status mirrors what the single
// classify endpoint would have answered for the same source (200, 400 or
// 422), so a bad kernel fails its slot without failing the batch.
type BatchItemResult struct {
	ID     string          `json:"id,omitempty"`
	Status int             `json:"status"`
	Error  string          `json:"error,omitempty"`
	Result *ClassifyResult `json:"result,omitempty"`
}

// OK reports whether this item classified successfully.
func (r BatchItemResult) OK() bool { return r.Status == http.StatusOK }

// BatchResult is a full batch outcome, items in request order.
type BatchResult struct {
	Items     []BatchItemResult `json:"items"`
	Succeeded int               `json:"succeeded"`
	Failed    int               `json:"failed"`
}

// MaxBatchItems bounds one batch request. A batch is a latency
// amortization, not a bulk-import channel, and a bounded batch keeps one
// request's worth of work proportionate to one scheduling decision.
const MaxBatchItems = 256

// Batch validation errors. The daemon relays their text verbatim in 400
// bodies, so it is part of the wire contract.
var (
	// ErrBatchEmpty rejects a batch with no items.
	ErrBatchEmpty = errors.New("jobs: batch has no items")
	// ErrBatchTooLarge rejects a batch beyond MaxBatchItems.
	ErrBatchTooLarge = fmt.Errorf("jobs: batch exceeds %d items", MaxBatchItems)
)

// ValidateBatchSize checks a batch's item count against the shared bounds.
// Both the daemon and pkg/client call it, so an oversized batch is rejected
// before it ever crosses the wire.
func ValidateBatchSize(n int) error {
	switch {
	case n == 0:
		return ErrBatchEmpty
	case n > MaxBatchItems:
		return ErrBatchTooLarge
	}
	return nil
}

// ValidateBatchIDs checks client-supplied item identifiers: IDs are
// optional (responses preserve request order, so position suffices), but a
// non-empty ID must be unique within the batch — duplicate IDs would make
// per-item results ambiguous to correlate.
func ValidateBatchIDs(items []BatchItem) error {
	seen := make(map[string]struct{}, len(items))
	for i, it := range items {
		if it.ID == "" {
			continue
		}
		if _, dup := seen[it.ID]; dup {
			return fmt.Errorf("jobs: duplicate batch item id %q (item %d)", it.ID, i)
		}
		seen[it.ID] = struct{}{}
	}
	return nil
}

// PTXRequest is the JSON envelope of a raw PTX source: the body of
// POST /v1/ptx, and of POST /v1/classify when it carries source. Raw text/*
// bodies carry the source directly on both endpoints.
type PTXRequest struct {
	PTX string `json:"ptx"`
}

// Diagnostic is one PTX validation failure, with a 1-based source line when
// the parser can attribute one (0 = whole-program diagnostic).
type Diagnostic struct {
	Line    int    `json:"line"`
	Message string `json:"message"`
}

// PTXKernel is one accepted kernel from a /v1/ptx submission: static shape
// plus the daemon's load classification.
type PTXKernel struct {
	Name             string `json:"name"`
	Instructions     int    `json:"instructions"`
	Registers        int    `json:"registers"`
	SharedBytes      int    `json:"shared_bytes,omitempty"`
	Deterministic    int    `json:"deterministic"`
	NonDeterministic int    `json:"non_deterministic"`
	Loads            []Load `json:"loads"`
}

// PTXResult is an accepted /v1/ptx submission: a content digest (a stable
// handle for caching or later cross-referencing) plus per-kernel results.
type PTXResult struct {
	SHA256  string      `json:"sha256"`
	Kernels []PTXKernel `json:"kernels"`
}
