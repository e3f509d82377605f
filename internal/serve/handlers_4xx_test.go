package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestHandler4xxTaxonomy drives every POST /v1 endpoint through the real
// HTTP mux with malformed or out-of-range requests and asserts the
// status taxonomy: 400 for requests the server refuses to interpret, 404
// for well-formed requests naming unknown things, 405 for wrong methods.
// Every case is rejected before any characterization or timing work, so
// the table stays fast.
func TestHandler4xxTaxonomy(t *testing.T) {
	s := New(quickConfig(sharedDir(t)), nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		path string
		body string
		want int
	}{
		// Body decode failures (the shared decode in single).
		{"guardband malformed json", "/v1/guardband", `{"circuit":`, 400},
		{"celltiming malformed json", "/v1/celltiming", `not json at all`, 400},
		{"paths malformed json", "/v1/paths", `[]`, 400},
		{"grid malformed json", "/v1/grid", `{"circuit": 7}`, 400},
		{"mc malformed json", "/v1/mcguardband", `{"samples": "many"}`, 400},
		{"batch malformed json", "/v1/batch", `{"items": {}}`, 400},

		// A body is exactly one JSON value: trailing bytes other than
		// whitespace are refused before the value is looked at, while a
		// trailing newline still reaches validation.
		{"guardband trailing garbage", "/v1/guardband",
			`{"circuit":"Z80","scenario":{"kind":"worst"}} trailing`, 400},
		{"guardband two values", "/v1/guardband",
			`{"circuit":"Z80","scenario":{"kind":"worst"}}{"circuit":"Z80"}`, 400},
		{"guardband trailing newline", "/v1/guardband",
			"{\"circuit\":\"Z80\",\"scenario\":{\"kind\":\"worst\"}}\n", 404},
		{"batch trailing garbage", "/v1/batch",
			`{"items":[{"kind":"teleport"}]} trailing`, 400},

		// Version gate.
		{"guardband unknown version", "/v1/guardband",
			`{"version":"v9","circuit":"RISC-5P","scenario":{"kind":"worst"}}`, 400},
		{"mc unknown version", "/v1/mcguardband",
			`{"version":"v0","circuit":"RISC-5P","scenario":{"kind":"worst"}}`, 400},

		// Scenario taxonomy.
		{"unknown scenario kind", "/v1/guardband",
			`{"circuit":"RISC-5P","scenario":{"kind":"pessimal"}}`, 400},
		{"fresh with years", "/v1/guardband",
			`{"circuit":"RISC-5P","scenario":{"kind":"fresh","years":10}}`, 400},
		{"negative years", "/v1/paths",
			`{"circuit":"RISC-5P","scenario":{"kind":"worst","years":-1}}`, 400},
		{"lambda above one", "/v1/guardband",
			`{"circuit":"RISC-5P","scenario":{"kind":"duty","lambda_p":1.5,"lambda_n":0.5}}`, 400},
		{"negative lambda", "/v1/guardband",
			`{"circuit":"RISC-5P","scenario":{"kind":"duty","lambda_p":0.5,"lambda_n":-0.1}}`, 400},

		// Unknown names are 404, not 400.
		{"unknown circuit", "/v1/guardband",
			`{"circuit":"Z80","scenario":{"kind":"worst"}}`, 404},
		{"mc unknown circuit", "/v1/mcguardband",
			`{"circuit":"Z80","scenario":{"kind":"worst"}}`, 404},

		// Endpoint-specific parameter bounds.
		{"celltiming zero slew", "/v1/celltiming",
			`{"cell":"INV_X1","scenario":{"kind":"fresh"},"in_slew_s":0,"load_f":2e-15}`, 400},
		{"celltiming negative load", "/v1/celltiming",
			`{"cell":"INV_X1","scenario":{"kind":"fresh"},"in_slew_s":2e-11,"load_f":-1e-15}`, 400},
		{"paths negative k", "/v1/paths",
			`{"circuit":"RISC-5P","scenario":{"kind":"worst"},"k":-2}`, 400},
		{"paths oversized k", "/v1/paths",
			`{"circuit":"RISC-5P","scenario":{"kind":"worst"},"k":101}`, 400},
		{"grid negative years", "/v1/grid",
			`{"circuit":"RISC-5P","years":-5}`, 400},

		// Monte Carlo sampling-parameter bounds.
		{"mc negative samples", "/v1/mcguardband",
			`{"circuit":"RISC-5P","scenario":{"kind":"worst"},"samples":-1}`, 400},
		{"mc oversized samples", "/v1/mcguardband",
			`{"circuit":"RISC-5P","scenario":{"kind":"worst"},"samples":1000000}`, 400},
		{"mc negative bins", "/v1/mcguardband",
			`{"circuit":"RISC-5P","scenario":{"kind":"worst"},"bins":-8}`, 400},
		{"mc oversized bins", "/v1/mcguardband",
			`{"circuit":"RISC-5P","scenario":{"kind":"worst"},"bins":100000}`, 400},
		{"mc negative sigma", "/v1/mcguardband",
			`{"circuit":"RISC-5P","scenario":{"kind":"worst"},"sigma_vth_v":-0.01}`, 400},
		{"mc oversized sigma vth", "/v1/mcguardband",
			`{"circuit":"RISC-5P","scenario":{"kind":"worst"},"sigma_vth_v":5}`, 400},
		{"mc oversized sigma mu", "/v1/mcguardband",
			`{"circuit":"RISC-5P","scenario":{"kind":"worst"},"sigma_mu_rel":2}`, 400},
		{"mc fresh with years", "/v1/mcguardband",
			`{"circuit":"RISC-5P","scenario":{"kind":"fresh","years":3}}`, 400},

		// An empty batch is a request-level mistake.
		{"batch no items", "/v1/batch", `{"items":[]}`, 400},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Errorf("%s %s: status %d, want %d", c.path, c.body, resp.StatusCode, c.want)
			}
		})
	}

	// Item shape and item decode errors don't fail the whole batch: the
	// reply is 200 with a per-item 400 (failed items carry their own
	// error while the rest of the batch still answers).
	for _, body := range []string{
		`{"items":[{"kind":"celltiming","guardband":{"circuit":"RISC-5P"}}]}`,
		`{"items":[{"kind":"teleport"}]}`,
		`{"items":[{"kind":"guardband","guardband":{},"paths":{}}]}`,
		`{"items":[{"kind":"guardband","guardband":{"circuit":7}}]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var br struct {
			Items []struct {
				Error *struct {
					Status int `json:"status"`
				} `json:"error"`
			} `json:"items"`
		}
		err = json.NewDecoder(resp.Body).Decode(&br)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("batch %s: status %d, decode err %v", body, resp.StatusCode, err)
		}
		if len(br.Items) != 1 || br.Items[0].Error == nil || br.Items[0].Error.Status != 400 {
			t.Errorf("batch %s: items = %+v, want one item with a 400 error", body, br.Items)
		}
	}

	// Wrong method on a POST route.
	resp, err := http.Get(ts.URL + "/v1/guardband")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/guardband: status %d, want 405", resp.StatusCode)
	}
}
