package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"doconsider/internal/sparse"
)

// Shard endpoints: the server's side of the distributed tier's warm
// handoff protocol (internal/router). A stateless front door shards
// fingerprints across replicas; when the ring rebalances (replica join
// or leave), the router enumerates the losing replica's hot factors
// (GET /v1/shard/plans), exports each one (GET /v1/shard/factor) and
// replays it into the gaining replica (POST /v1/shard/warm), which
// registers the factor and pre-builds its plan through the same
// plan-cache path real traffic uses — so cutover lands on a warm cache
// instead of a cold start.

// ShardPlan summarizes one resident factor for handoff enumeration.
type ShardPlan struct {
	Fp    string `json:"fp"`
	Lower bool   `json:"lower"`
	N     int    `json:"n"`
	Nnz   int    `json:"nnz"`
}

// ShardPlansResponse is the GET /v1/shard/plans payload: resident
// factors, hottest (most recently used) first.
type ShardPlansResponse struct {
	Plans []ShardPlan `json:"plans"`
}

// ShardFactor is a factor exported for handoff: the full CSR content
// with values packed little-endian (the B64 convention). It is both the
// GET /v1/shard/factor response and the POST /v1/shard/warm request.
type ShardFactor struct {
	Fp     string  `json:"fp,omitempty"`
	Lower  bool    `json:"lower"`
	N      int     `json:"n"`
	RowPtr []int32 `json:"rowptr"`
	ColIdx []int32 `json:"colidx"`
	Val64  []byte  `json:"val64"`
}

// handleShardPlans enumerates the by-fingerprint factor cache, most
// recently used first. ?limit=N bounds the listing (default all).
func (s *Server) handleShardPlans(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	limit := 0
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("malformed limit %q", q))
			return
		}
		limit = n
	}
	resp := ShardPlansResponse{Plans: []ShardPlan{}}
	for _, fp := range s.factors.Keys(limit) {
		cf, ok := s.factors.Peek(fp)
		if !ok {
			continue // evicted or still building since the enumeration
		}
		resp.Plans = append(resp.Plans, ShardPlan{
			Fp:    fmt.Sprintf("%016x", fp),
			Lower: cf.lower,
			N:     cf.l.N,
			Nnz:   cf.l.NNZ(),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleShardFactor exports one resident factor by fingerprint for the
// router to replay into a gaining replica.
func (s *Server) handleShardFactor(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	hexFp := r.URL.Query().Get("fp")
	fp, err := parseHexFp(hexFp)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	cf, ok := s.factors.Peek(fp)
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownFactor.Error())
		return
	}
	out := ShardFactor{
		Fp:     fmt.Sprintf("%016x", fp),
		Lower:  cf.lower,
		N:      cf.l.N,
		RowPtr: cf.l.RowPtr,
		ColIdx: cf.l.ColIdx,
		Val64:  PackFloats(cf.l.Val),
	}
	writeJSON(w, http.StatusOK, out)
}

// handleShardWarm registers a replayed factor and, under the pin the
// registration returns, builds its plan through the same plan-cache
// options real traffic uses, so the first routed request after cutover
// finds the factor resident with its plan bound. The factor's residency
// on its previous owner is the reuse evidence the plan cache's
// second-sight rule waits for: the replay is its first sight here, and
// the build follows at once. The response carries the authoritative
// content fingerprint the replica computed itself — the warm path never
// trusts the sender's fp.
func (s *Server) handleShardWarm(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var in ShardFactor
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxFrameBytes))
	if err := dec.Decode(&in); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	val, err := UnpackFloats(in.Val64)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	l := sparse.View(in.N, in.RowPtr, in.ColIdx, val)
	if err := validateFactor(l, in.Lower); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	pin, fp := s.registerFactor(&residentFactor{l: l, lower: in.Lower})
	defer pin.Release()
	if fp == 0 {
		// Content-fingerprint collision with a different resident factor;
		// registering would serve wrong answers, warming is refused.
		writeError(w, http.StatusConflict, "factor fingerprint collision")
		return
	}
	f := pin.Value()
	p, err := f.plan(s, nil)
	if err == nil && p.Wf == nil {
		_, err = f.plan(s, nil)
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "plan warm failed: "+err.Error())
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Fp string `json:"fp"`
	}{Fp: fmt.Sprintf("%016x", fp)})
}
