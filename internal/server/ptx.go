package server

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"critload/internal/ptx"
	"critload/pkg/api"
)

// ptxMaxBytes caps a /v1/ptx submission. Tighter than the transport-level
// maxRequestBytes: the largest hand-written kernels in the corpus are a few
// kilobytes, so a megabyte of PTX is a runaway generator, not a workload.
const ptxMaxBytes = 1 << 20

// handlePTX implements POST /v1/ptx: validate a raw .ptx program against the
// PTX-subset grammar and the kernel structural invariants, then classify
// every global load. Malformed programs answer 422 with per-diagnostic
// line/message pairs; empty bodies 400; oversized ones 413. Outcomes feed
// the critloadd_ptx_submissions_total{outcome} counters.
func (s *Server) handlePTX(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		s.metrics.observePTX(false)
		writeError(w, bodyErrorStatus(err), "reading body: %v", err)
		return
	}
	src := string(body)
	if isJSONBody(r.Header.Get("Content-Type"), body) {
		var req api.PTXRequest
		if err := json.Unmarshal(body, &req); err != nil {
			s.metrics.observePTX(false)
			writeError(w, http.StatusBadRequest, "decoding request: %v", err)
			return
		}
		src = req.PTX
	}
	if strings.TrimSpace(src) == "" {
		s.metrics.observePTX(false)
		writeError(w, http.StatusBadRequest, "empty PTX source")
		return
	}
	if len(src) > ptxMaxBytes {
		s.metrics.observePTX(false)
		writeError(w, http.StatusRequestEntityTooLarge,
			"PTX source is %d bytes; limit is %d", len(src), ptxMaxBytes)
		return
	}

	prog, err := ptx.Parse(src)
	if err != nil {
		s.metrics.observePTX(false)
		writeJSON(w, http.StatusUnprocessableEntity, api.Error{
			Message: "invalid PTX", Diagnostics: diagnostics(err),
		})
		return
	}

	resp := ptxResult(src, prog)
	s.metrics.observePTX(true)
	writePTX(w, &resp)
}

// ptxResult is an accepted program's response: its digest and every
// kernel's shape and load classes.
func ptxResult(src string, prog *ptx.Program) api.PTXResult {
	resp := api.PTXResult{
		SHA256:  fmt.Sprintf("%x", sha256.Sum256([]byte(src))),
		Kernels: []api.PTXKernel{},
	}
	for _, k := range prog.Kernels {
		kj := classifyKernel(k)
		resp.Kernels = append(resp.Kernels, api.PTXKernel{
			Name:             k.Name,
			Instructions:     len(k.Insts),
			Registers:        k.NumRegs,
			SharedBytes:      k.SharedBytes,
			Deterministic:    kj.Deterministic,
			NonDeterministic: kj.NonDeterministic,
			Loads:            kj.Loads,
		})
	}
	return resp
}

// diagnostics maps a parse/validation error to the response diagnostic list.
// Parser errors carry a source line; structural validation errors (which the
// parser raises after assembly) attribute to the whole program.
func diagnostics(err error) []api.Diagnostic {
	var pe *ptx.ParseError
	if errors.As(err, &pe) {
		return []api.Diagnostic{{Line: pe.Line, Message: pe.Msg}}
	}
	return []api.Diagnostic{{Line: 0, Message: err.Error()}}
}
