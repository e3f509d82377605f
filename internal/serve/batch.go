package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"ageguard/internal/conc"
	"ageguard/pkg/ageguard/api"
)

// Batched queries.
//
// Every batch item is answered as the single query it wraps: decoded,
// validated and passed to the unmodified single-endpoint handler, so a
// batch answer is bit-identical to its single-request counterpart by
// construction and validation exists once. Items run in parallel over
// internal/conc under the batch's one admission ticket; their
// libraries, compiled netlists and critical paths come from the same
// LRU + singleflight as single requests, so items (and concurrent
// single queries) that share a scenario characterize it once.
//
// The marshaled wire fragment of every successful item is memoized in
// the LRU under the item's raw request bytes. A later item with the
// same bytes, in this batch or another, is a byte copy: no decode,
// validation or handler call. The key needs no validation of its own
// because the same bytes are the same request.
//
// Failure is per-item, with the status taxonomy single requests use.
// Failed items are never memoized, so transient errors (deadlines,
// cancellations) cannot stick in the cache, and a fill that failed is
// not re-run by later items of the same batch (withFailedFills): one
// bad scenario neither fails the batch nor pays its fill once per item.

// maxBatchItems bounds one batch request; beyond it the batch itself is
// rejected (400), since an unbounded item list would defeat the
// admission queue, which charges a batch one ticket.
const maxBatchItems = 256

// batchRequest is the server-side decode shape of api.BatchRequest. The
// items stay raw: an item's bytes are its memo key, and an item that
// fails to decode fails alone instead of failing the batch.
type batchRequest struct {
	Version string            `json:"version"`
	Items   []json.RawMessage `json:"items"`
}

// batch answers POST /v1/batch with the rendered reply body. clean
// reports that no item carries an error, which gates the whole-reply
// memo in batchReply.
func (s *Server) batch(ctx context.Context, req *batchRequest) (body []byte, clean bool, err error) {
	if err := checkVersion(req.Version); err != nil {
		return nil, false, err
	}
	n := len(req.Items)
	if n == 0 {
		return nil, false, badRequest("empty batch")
	}
	if n > maxBatchItems {
		return nil, false, badRequest("batch of %d items exceeds the %d-item limit", n, maxBatchItems)
	}
	s.reg.Counter("serve.batch.items").Add(int64(n))

	ctx = withFailedFills(ctx)
	frags := make([]json.RawMessage, n)
	var memoHits, itemErrs atomic.Int64
	// A batch holds a single admission ticket; its items run on all
	// CPUs. Errors stay per item, so every iteration reports nil to
	// ParFor and only a canceled ctx stops it early.
	_ = conc.ParFor(ctx, conc.Workers(0), n, func(i int) error {
		key := "item|" + string(req.Items[i])
		if v, ok := s.cache.peek(key); ok {
			frags[i] = v.(json.RawMessage)
			memoHits.Add(1)
			return nil
		}
		frag, err := s.batchItem(ctx, req.Items[i])
		if err != nil {
			frags[i] = itemError(err)
			itemErrs.Add(1)
			return nil
		}
		s.cache.put(key, frag)
		frags[i] = frag
		return nil
	})
	// A canceled batch can leave items unrun; every item still gets a
	// result, carrying the cancellation's status.
	if err := ctx.Err(); err != nil {
		for i := range frags {
			if frags[i] == nil {
				frags[i] = itemError(err)
				itemErrs.Add(1)
			}
		}
	}
	s.reg.Counter("serve.batch.memo_hits").Add(memoHits.Load())
	s.reg.Counter("serve.batch.item_errors").Add(itemErrs.Load())
	return batchBody(frags), itemErrs.Load() == 0, nil
}

// batchItem answers one raw batch item through its single-endpoint
// handler and returns the marshaled api.BatchItemResult.
func (s *Server) batchItem(ctx context.Context, raw json.RawMessage) (json.RawMessage, error) {
	var it api.BatchItem
	if err := json.Unmarshal(raw, &it); err != nil {
		return nil, badRequest("decode item: %v", err)
	}
	if err := it.Validate(); err != nil {
		return nil, badRequest("%v", err)
	}
	var v any
	var err error
	switch it.Kind {
	case api.BatchGuardband:
		v, err = s.guardband(ctx, it.Guardband)
	case api.BatchCellTiming:
		v, err = s.cellTiming(ctx, it.CellTiming)
	case api.BatchPaths:
		v, err = s.paths(ctx, it.Paths)
	}
	if err != nil {
		return nil, err
	}
	var res api.BatchItemResult
	switch r := v.(type) {
	case api.GuardbandResponse:
		res.Guardband = &r
	case api.CellTimingResponse:
		res.CellTiming = &r
	case api.PathsResponse:
		res.Paths = &r
	}
	// A marshal failure (NaN leaking into a response, say) is a per-item
	// 500 instead of failing the whole batch the way a single request
	// would fail its whole reply.
	b, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("marshal item result: %w", err)
	}
	return b, nil
}

// itemError renders a failed item's fragment, carrying the status the
// single-request endpoint would have answered with.
func itemError(err error) json.RawMessage {
	// A status and a message always marshal.
	b, _ := json.Marshal(api.BatchItemResult{Error: &api.BatchError{Status: status(err), Message: err.Error()}})
	return b
}

// batchBody renders the reply byte-for-byte as encoding/json renders the
// api.BatchResponse — the version is a separator-free constant and every
// fragment is already compact, escaped JSON — without re-scanning the
// fragments the way Marshal's RawMessage compaction does. A trailing
// newline matches every other reply (single).
func batchBody(frags []json.RawMessage) []byte {
	n := len(`{"version":"","items":[]}`) + len(api.APIVersion) + len(frags) + 1
	for _, f := range frags {
		n += len(f)
	}
	b := make([]byte, 0, n)
	b = append(b, `{"version":"`...)
	b = append(b, api.APIVersion...)
	b = append(b, `","items":[`...)
	for i, f := range frags {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, f...)
	}
	b = append(b, ']', '}', '\n')
	return b
}
