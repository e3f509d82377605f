// Package api defines the versioned wire types of the ageguardd
// HTTP/JSON interface. The package is importable by out-of-tree clients:
// it depends on nothing but the standard library and carries only plain
// data — all physical quantities are SI floats, with the unit suffixed
// to the field name (_s seconds, _f farads).
//
// Every request and response embeds the protocol version; servers reject
// requests whose version they do not speak, so a future v2 can change
// shapes without silently misreading v1 traffic.
//
// All /v1 query endpoints are idempotent reads: re-issuing a request —
// a retry after a transport failure, or a hedged duplicate racing a
// slow attempt — never changes server state and always converges to
// the same answer, so clients are free to retry and hedge them.
package api

import (
	"fmt"
	"hash/fnv"
)

// APIVersion is the protocol generation this package describes. Clients
// put it in requests; servers echo it in responses.
const APIVersion = "v1"

// BodySumHeader is the header carrying an end-to-end integrity checksum
// of the JSON body, computed with BodySum. Servers stamp it on
// responses; clients verify it when present, so bit corruption in
// transit — which can turn one valid JSON number into another that no
// decoder would flag — is detected and the request retried instead of a
// silently wrong answer being accepted. Absent on replies from servers
// that predate it; verification is then skipped.
const BodySumHeader = "Ageguard-Body-Sum"

// BodySum returns the checksum header value for a body: the FNV-1a
// 64-bit digest of the exact bytes on the wire.
func BodySum(body []byte) string {
	h := fnv.New64a()
	h.Write(body)
	return fmt.Sprintf("fnv64a %016x", h.Sum64())
}

// Scenario selects the aging stress a query is evaluated under.
//
// Kind is one of "fresh", "worst", "balance" or "duty". Years is the
// projected lifetime (ignored for "fresh"). LambdaP/LambdaN are the
// pMOS/nMOS duty cycles in [0, 1], used by "duty" only.
type Scenario struct {
	Kind    string  `json:"kind"`
	Years   float64 `json:"years,omitempty"`
	LambdaP float64 `json:"lambda_p,omitempty"`
	LambdaN float64 `json:"lambda_n,omitempty"`
}

// GuardbandRequest asks for the timing guardband of a benchmark circuit
// under a static aging scenario: the circuit is synthesized
// traditionally (cached server-side) and timed fresh and aged.
type GuardbandRequest struct {
	Version  string   `json:"version"`
	Circuit  string   `json:"circuit"`
	Scenario Scenario `json:"scenario"`
}

// GuardbandResponse reports the fresh and aged critical paths and their
// difference. GuardbandPct is the guardband relative to the fresh
// critical path, in percent.
type GuardbandResponse struct {
	Version      string   `json:"version"`
	Circuit      string   `json:"circuit"`
	Scenario     Scenario `json:"scenario"`
	FreshCPs     float64  `json:"fresh_cp_s"`
	AgedCPs      float64  `json:"aged_cp_s"`
	GuardbandS   float64  `json:"guardband_s"`
	GuardbandPct float64  `json:"guardband_pct"`
}

// CellTimingRequest asks for the aged timing of one standard cell at a
// given input slew and output load, interpolated from the
// characterized library of the scenario.
type CellTimingRequest struct {
	Version  string   `json:"version"`
	Cell     string   `json:"cell"`
	Scenario Scenario `json:"scenario"`
	InSlewS  float64  `json:"in_slew_s"`
	LoadF    float64  `json:"load_f"`
}

// ArcTiming is the interpolated delay and output slew of one timing arc
// at the queried (slew, load) point. Edge names the output transition,
// "rise" or "fall". OutSlewS is nil (and absent from the wire) for
// delay-only arcs — the library format treats output slew as optional.
type ArcTiming struct {
	Pin      string   `json:"pin"`
	Edge     string   `json:"edge"`
	DelayS   float64  `json:"delay_s"`
	OutSlewS *float64 `json:"out_slew_s,omitempty"`
}

// CellTimingResponse reports every arc of the cell at the queried
// point. Library names the characterized library that served the
// lookup.
type CellTimingResponse struct {
	Version string      `json:"version"`
	Cell    string      `json:"cell"`
	Library string      `json:"library"`
	Arcs    []ArcTiming `json:"arcs"`
}

// GridRequest asks for the full duty-cycle guardband grid of a circuit:
// the netlist is timed under every (lambdaP, lambdaN) combination of
// the paper's 11x11 grid for the given lifetime.
type GridRequest struct {
	Version string  `json:"version"`
	Circuit string  `json:"circuit"`
	Years   float64 `json:"years"`
}

// GridResponse carries the grid slice. AgedCPs is indexed
// [iLambdaP][iLambdaN] over the Lambdas axis; the guardband at a point
// is AgedCPs[i][j] - FreshCPs.
type GridResponse struct {
	Version         string      `json:"version"`
	Circuit         string      `json:"circuit"`
	Years           float64     `json:"years"`
	FreshCPs        float64     `json:"fresh_cp_s"`
	Lambdas         []float64   `json:"lambdas"`
	AgedCPs         [][]float64 `json:"aged_cp_s"`
	WorstGuardbandS float64     `json:"worst_guardband_s"`
}

// PathsRequest asks for the K most critical register-to-register or
// register-to-output paths of a circuit under a scenario.
type PathsRequest struct {
	Version  string   `json:"version"`
	Circuit  string   `json:"circuit"`
	Scenario Scenario `json:"scenario"`
	K        int      `json:"k"`
}

// PathStep is one cell traversal on a reported timing path.
type PathStep struct {
	Inst     string  `json:"inst"`
	Cell     string  `json:"cell"`
	Pin      string  `json:"pin"`
	InEdge   string  `json:"in_edge"`
	OutEdge  string  `json:"out_edge"`
	DelayS   float64 `json:"delay_s"`
	ArrivalS float64 `json:"arrival_s"`
}

// Path is one critical path: total delay includes the setup component
// at a register endpoint (SetupS, zero at primary outputs).
type Path struct {
	Launch   string     `json:"launch"`
	Endpoint string     `json:"endpoint"`
	EndEdge  string     `json:"end_edge"`
	DelayS   float64    `json:"delay_s"`
	SetupS   float64    `json:"setup_s,omitempty"`
	Steps    []PathStep `json:"steps"`
}

// PathsResponse reports the paths, most critical first.
type PathsResponse struct {
	Version string `json:"version"`
	Circuit string `json:"circuit"`
	Paths   []Path `json:"paths"`
}

// MCGuardbandRequest asks for the process-variation Monte Carlo
// guardband distribution of a circuit under an aging scenario: the
// server samples per-instance Vth0/mobility perturbations from seeded
// deterministic streams, re-times the fresh and aged critical paths per
// sample, and reduces the per-sample guardbands to quantiles and a
// histogram. Equal requests — including the seed — always reproduce
// bit-identical responses.
//
// Samples defaults to 256 (bounded server-side), Bins to 32. SigmaVthV
// and SigmaMuRel are the per-instance variation magnitudes; when both
// are zero the server substitutes its default process spread
// (sigma(Vth0) = 15 mV, sigma(mu)/mu = 3%).
type MCGuardbandRequest struct {
	Version    string   `json:"version"`
	Circuit    string   `json:"circuit"`
	Scenario   Scenario `json:"scenario"`
	Samples    int      `json:"samples,omitempty"`
	Seed       uint64   `json:"seed,omitempty"`
	SigmaVthV  float64  `json:"sigma_vth_v,omitempty"`
	SigmaMuRel float64  `json:"sigma_mu_rel,omitempty"`
	Bins       int      `json:"bins,omitempty"`
}

// MCHistogram is a fixed-width histogram of the per-sample guardbands
// over [LoS, HiS] (the observed extremes).
type MCHistogram struct {
	LoS    float64 `json:"lo_s"`
	HiS    float64 `json:"hi_s"`
	Counts []int   `json:"counts"`
}

// MCGuardbandResponse reports the guardband distribution: the nominal
// (zero-variation) fresh/aged critical paths, then mean, standard
// deviation, interpolated quantiles and extremes of the per-sample
// guardbands, plus the histogram. Per-sample arrays stay server-side.
type MCGuardbandResponse struct {
	Version    string      `json:"version"`
	Circuit    string      `json:"circuit"`
	Scenario   Scenario    `json:"scenario"`
	Samples    int         `json:"samples"`
	Seed       uint64      `json:"seed"`
	SigmaVthV  float64     `json:"sigma_vth_v"`
	SigmaMuRel float64     `json:"sigma_mu_rel"`
	FreshCPs   float64     `json:"fresh_cp_s"`
	AgedCPs    float64     `json:"aged_cp_s"`
	MeanS      float64     `json:"mean_s"`
	StdS       float64     `json:"std_s"`
	P50S       float64     `json:"p50_s"`
	P95S       float64     `json:"p95_s"`
	P999S      float64     `json:"p999_s"`
	MinS       float64     `json:"min_s"`
	MaxS       float64     `json:"max_s"`
	Hist       MCHistogram `json:"hist"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Version string `json:"version"`
	Error   string `json:"error"`
}

// Batch item kinds. Grid is deliberately excluded: one grid query is
// itself a 121-library batch and dwarfs everything else a batch could
// carry; issue it as a single request.
const (
	BatchGuardband  = "guardband"
	BatchCellTiming = "celltiming"
	BatchPaths      = "paths"
)

// BatchItem is one query inside a batch: Kind selects which of the
// payload pointers is populated. Exactly the payload named by Kind must
// be non-nil; servers reject malformed items per-item, not per-batch.
type BatchItem struct {
	Kind       string             `json:"kind"`
	Guardband  *GuardbandRequest  `json:"guardband,omitempty"`
	CellTiming *CellTimingRequest `json:"celltiming,omitempty"`
	Paths      *PathsRequest      `json:"paths,omitempty"`
}

// GuardbandItem wraps a guardband request as a batch item.
func GuardbandItem(r GuardbandRequest) BatchItem {
	return BatchItem{Kind: BatchGuardband, Guardband: &r}
}

// CellTimingItem wraps a cell-timing request as a batch item.
func CellTimingItem(r CellTimingRequest) BatchItem {
	return BatchItem{Kind: BatchCellTiming, CellTiming: &r}
}

// PathsItem wraps a paths request as a batch item.
func PathsItem(r PathsRequest) BatchItem {
	return BatchItem{Kind: BatchPaths, Paths: &r}
}

// Validate checks the item's shape: a known Kind carrying exactly its
// own payload.
func (it BatchItem) Validate() error {
	switch it.Kind {
	case BatchGuardband, BatchCellTiming, BatchPaths:
	default:
		return fmt.Errorf("unknown batch item kind %q (want %s, %s or %s)",
			it.Kind, BatchGuardband, BatchCellTiming, BatchPaths)
	}
	var set []string
	if it.Guardband != nil {
		set = append(set, BatchGuardband)
	}
	if it.CellTiming != nil {
		set = append(set, BatchCellTiming)
	}
	if it.Paths != nil {
		set = append(set, BatchPaths)
	}
	if len(set) != 1 || set[0] != it.Kind {
		return fmt.Errorf("batch item of kind %q must carry exactly the %q payload (has %v)",
			it.Kind, it.Kind, set)
	}
	return nil
}

// BatchRequest asks for a heterogeneous list of queries answered in one
// round trip. The server answers each item exactly as the single
// request it wraps, and items that share a library, netlist or analyzer
// share its one fill. Items that fail, including items that do not
// decode, carry their own error while the rest of the batch still
// succeeds.
type BatchRequest struct {
	Version string      `json:"version"`
	Items   []BatchItem `json:"items"`
}

// BatchError is one item's failure: the same HTTP status taxonomy a
// single request would have received (400 bad parameters, 404 unknown
// name, 504 deadline, ...) plus the error message.
type BatchError struct {
	Status  int    `json:"status"`
	Message string `json:"message"`
}

// BatchItemResult answers one batch item: either Error is set, or the
// response pointer matching the item's Kind is.
type BatchItemResult struct {
	Error      *BatchError         `json:"error,omitempty"`
	Guardband  *GuardbandResponse  `json:"guardband,omitempty"`
	CellTiming *CellTimingResponse `json:"celltiming,omitempty"`
	Paths      *PathsResponse      `json:"paths,omitempty"`
}

// BatchResponse carries one result per request item, in request order.
type BatchResponse struct {
	Version string            `json:"version"`
	Items   []BatchItemResult `json:"items"`
}
