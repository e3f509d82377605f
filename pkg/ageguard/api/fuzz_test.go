package api

import (
	"encoding/json"
	"testing"
)

// FuzzBatchRequestDecode asserts the wire-decoding path a hostile client
// controls: arbitrary bytes either fail to decode, fail item decoding or
// validation, or yield items that each re-encode cleanly. No input may
// panic — this is exactly what the server runs on each /v1/batch body:
// the envelope with raw items first, then each item on its own, so a
// malformed item fails alone.
func FuzzBatchRequestDecode(f *testing.F) {
	good, _ := json.Marshal(BatchRequest{
		Version: APIVersion,
		Items: []BatchItem{
			GuardbandItem(GuardbandRequest{Circuit: "DSP", Scenario: Scenario{Kind: "worst"}}),
			CellTimingItem(CellTimingRequest{Cell: "INV_X1", InSlewS: 2e-11, LoadF: 2e-15}),
			PathsItem(PathsRequest{Circuit: "DSP", K: 3}),
		},
	})
	f.Add(good)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":"v1","items":[{"kind":"guardband"}]}`))
	f.Add([]byte(`{"items":[{"kind":"celltiming","guardband":{}}]}`))
	f.Add([]byte(`{"items":null}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"items":[{"kind":"?"}]}`))
	f.Add([]byte(`{"items":[{"kind":"guardband","guardband":{"circuit":7}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req struct {
			Version string            `json:"version"`
			Items   []json.RawMessage `json:"items"`
		}
		if err := json.Unmarshal(data, &req); err != nil {
			return
		}
		for _, raw := range req.Items {
			var it BatchItem
			if err := json.Unmarshal(raw, &it); err != nil {
				continue
			}
			if err := it.Validate(); err != nil {
				continue
			}
			if _, err := json.Marshal(it); err != nil {
				t.Fatalf("valid item failed to re-encode: %v", err)
			}
		}
	})
}
