package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"reflect"
	"sync"

	"github.com/hotgauge/boreas/internal/arch"
	"github.com/hotgauge/boreas/internal/engine"
)

// MaxBatch bounds the number of observations in one /v1/decide request.
const MaxBatch = 4096

// MaxBodyBytes bounds a /v1/decide request body; a longer body is
// answered 400. A full MaxBatch of items carrying every counter is
// about 8 MB.
const MaxBodyBytes = 16 << 20

// MetricsPrefix is the metric-name prefix on /metrics.
const MetricsPrefix = "boreas"

// Observation is the wire form of one chip observation. The counter
// vector uses arch.Counters' Go field names as JSON keys; omitted
// counters are zero, unknown fields are rejected.
type Observation struct {
	// SensorTemp is the delayed thermal-sensor reading in Celsius.
	SensorTemp float64 `json:"sensor_temp"`
	// Counters is the telemetry of the interval that just finished.
	Counters arch.Counters `json:"counters"`
}

// DecideItem is one chip's entry in a batched decide request.
type DecideItem struct {
	Chip        string      `json:"chip"`
	Observation Observation `json:"observation"`
}

// DecideRequest is the /v1/decide payload: either a single chip
// observation (chip + observation) or a batch (batch), not both.
type DecideRequest struct {
	Chip        string       `json:"chip,omitempty"`
	Observation *Observation `json:"observation,omitempty"`
	Batch       []DecideItem `json:"batch,omitempty"`
}

// Decision is the wire form of one commanded operating point.
type Decision struct {
	Chip string `json:"chip"`
	// FreqGHz is the commanded frequency after clamping to the VF curve.
	FreqGHz float64 `json:"freq_ghz"`
	// RawGHz is the controller's unclamped output.
	RawGHz float64 `json:"raw_ghz"`
	// Tick is the zero-based decision index within the chip's session.
	Tick int `json:"tick"`
}

// DecideResponse answers /v1/decide: Decision for a single request,
// Decisions for a batch.
type DecideResponse struct {
	Decision  *Decision  `json:"decision,omitempty"`
	Decisions []Decision `json:"decisions,omitempty"`
}

// errorResponse is the JSON error body.
type errorResponse struct {
	Error string `json:"error"`
}

// NewHandler wires the decision service around a registry:
//
//	POST /v1/decide            single or batched decisions
//	GET  /v1/sessions          every live session's stats
//	GET  /v1/sessions/{chip}   one chip's stats
//	GET  /healthz              liveness
//	GET  /metrics              Prometheus text (?format=json for the Snapshot)
//	     /debug/pprof/...      the standard profiling endpoints
//
// Batched requests decide chip by chip in request order; every
// prediction runs on the session controller's compiled flat-tree
// kernel, so one HTTP round trip amortises across the whole batch. A
// batch is checked in full before any chip decides, so a rejected
// batch moves no session. Malformed or non-finite payloads, and bodies
// over MaxBodyBytes, are rejected with 400 — the handler never panics
// and never converts bad input into a 500.
func NewHandler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/decide", func(w http.ResponseWriter, r *http.Request) {
		handleDecide(reg, w, r)
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		reg.metrics.Requests.Add(1)
		writeJSON(w, http.StatusOK, struct {
			Sessions []SessionInfo `json:"sessions"`
		}{reg.Sessions()})
	})
	mux.HandleFunc("GET /v1/sessions/{chip}", func(w http.ResponseWriter, r *http.Request) {
		reg.metrics.Requests.Add(1)
		info, ok := reg.Session(r.PathValue("chip"))
		if !ok {
			writeJSON(w, http.StatusNotFound, errorResponse{fmt.Sprintf("no session for chip %q", r.PathValue("chip"))})
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			Status   string `json:"status"`
			Sessions int    `json:"sessions"`
		}{"ok", reg.Len()})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := reg.Snapshot()
		if r.URL.Query().Get("format") == "json" {
			writeJSON(w, http.StatusOK, snap)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, snap.Prom(MetricsPrefix))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return recoverMiddleware(mux)
}

// recoverMiddleware converts a handler panic into a 500 instead of
// killing the connection goroutine silently; request handling bugs must
// never take the daemon down.
func recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				writeJSON(w, http.StatusInternalServerError, errorResponse{fmt.Sprintf("internal error: %v", v)})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// handleDecide serves POST /v1/decide.
func handleDecide(reg *Registry, w http.ResponseWriter, r *http.Request) {
	reg.metrics.Requests.Add(1)
	body := bodyPool.Get().(*bytes.Buffer)
	defer putBody(body)
	if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes)); err != nil {
		badRequest(reg, w, fmt.Sprintf("reading request: %v", err))
		return
	}
	var req DecideRequest
	if err := decodeRequest(body.Bytes(), &req); err != nil {
		badRequest(reg, w, fmt.Sprintf("decoding request: %v", err))
		return
	}
	switch {
	case len(req.Batch) > 0:
		if req.Chip != "" || req.Observation != nil {
			badRequest(reg, w, "request mixes a single observation with a batch; send one or the other")
			return
		}
		if len(req.Batch) > MaxBatch {
			badRequest(reg, w, fmt.Sprintf("batch of %d exceeds the %d-observation limit", len(req.Batch), MaxBatch))
			return
		}
		for i, item := range req.Batch {
			if err := checkItem(item.Chip, item.Observation); err != nil {
				badRequest(reg, w, fmt.Sprintf("batch[%d]: %v", i, err))
				return
			}
		}
		out := make([]Decision, 0, len(req.Batch))
		for i, item := range req.Batch {
			d, err := decide(reg, item.Chip, item.Observation)
			if err != nil {
				badRequest(reg, w, fmt.Sprintf("batch[%d]: %v", i, err))
				return
			}
			out = append(out, d)
		}
		writeJSON(w, http.StatusOK, DecideResponse{Decisions: out})
	case req.Observation != nil:
		if err := checkItem(req.Chip, *req.Observation); err != nil {
			badRequest(reg, w, err.Error())
			return
		}
		d, err := decide(reg, req.Chip, *req.Observation)
		if err != nil {
			badRequest(reg, w, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, DecideResponse{Decision: &d})
	default:
		badRequest(reg, w, "request carries neither an observation nor a batch")
	}
}

// bodyPool recycles /v1/decide request buffers; putBody drops any
// buffer grown past maxPooledBody, so one large request cannot pin
// memory.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

func putBody(b *bytes.Buffer) {
	if b.Cap() > maxPooledBody {
		return
	}
	b.Reset()
	bodyPool.Put(b)
}

// checkItem validates one wire observation before anything decides.
func checkItem(chip string, o Observation) error {
	if chip == "" {
		return fmt.Errorf("empty chip ID")
	}
	if err := checkFinite(o); err != nil {
		return fmt.Errorf("chip %s: %w", chip, err)
	}
	return nil
}

// decide runs one checked wire observation through the registry.
func decide(reg *Registry, chip string, o Observation) (Decision, error) {
	d, err := reg.Decide(chip, engine.Observation{
		Counters:   o.Counters,
		SensorTemp: o.SensorTemp,
	})
	if err != nil {
		return Decision{}, err
	}
	return Decision{Chip: chip, FreqGHz: d.Freq, RawGHz: d.Raw, Tick: d.Tick}, nil
}

// checkFinite rejects observations carrying NaN or ±Inf anywhere. JSON
// itself cannot encode non-finite numbers, so on the HTTP path this is
// defence in depth; callers feeding the handler programmatically get
// the same 400 contract.
func checkFinite(o Observation) error {
	if math.IsNaN(o.SensorTemp) || math.IsInf(o.SensorTemp, 0) {
		return fmt.Errorf("non-finite sensor_temp %v", o.SensorTemp)
	}
	v := reflect.ValueOf(o.Counters)
	t := v.Type()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Float64 {
			continue
		}
		if f := v.Field(i).Float(); math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("non-finite counter %s = %v", t.Field(i).Name, f)
		}
	}
	return nil
}

// badRequest answers 400 and counts it.
func badRequest(reg *Registry, w http.ResponseWriter, msg string) {
	reg.metrics.BadRequests.Add(1)
	writeJSON(w, http.StatusBadRequest, errorResponse{msg})
}

// writeJSON renders one JSON response. Every value this service writes
// is JSON-safe by construction (no non-finite floats), so an encoding
// failure is a programming error surfaced as a 500 by the middleware.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
