package httpapi_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/distrib"
	"repro/internal/experiments"
	"repro/internal/service"
)

// servers runs both of the repository's HTTP servers: the distributed
// sweep coordinator and the scheduling service (not started, so nothing
// it admits is ever evaluated).
func servers(t *testing.T) map[string]*httptest.Server {
	t.Helper()
	opt := experiments.Quick()
	opt.Graphs = 2
	coord, err := distrib.NewCoordinator([]experiments.Spec{{Name: "pipeline", Opt: opt}},
		distrib.CoordinatorOptions{Run: "wire"})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*httptest.Server{
		"coordinator": httptest.NewServer(coord.Handler()),
		"service":     httptest.NewServer(service.New(service.Options{}).Handler()),
	}
	for _, srv := range out {
		t.Cleanup(srv.Close)
	}
	return out
}

func post(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// Both servers read exactly one JSON value per POST body: trailing data
// is a 400, trailing whitespace is not.
func TestPostBodiesHoldOneJSONValue(t *testing.T) {
	srvs := servers(t)
	endpoints := []struct {
		server, path, body string
	}{
		{"service", "/v1/submit", `{"workload":"synth:chain"}`},
		{"coordinator", "/v1/lease", `{"worker":"w","plan_hash":"x"}`},
		{"coordinator", "/v1/complete", `{"worker":"w","plan_hash":"x"}`},
	}
	trailers := []struct {
		name, tail string
		bad        bool
	}{
		{"garbage", "garbage", true},
		{"second value", " " + `{"worker":"w"}`, true},
		{"stray brace", "}", true},
		{"whitespace", " \n\t", false},
	}
	for _, e := range endpoints {
		for _, tr := range trailers {
			resp := post(t, srvs[e.server].URL+e.path, e.body+tr.tail)
			resp.Body.Close()
			if bad := resp.StatusCode == http.StatusBadRequest; bad != tr.bad {
				t.Errorf("%s %s + %s: status %d", e.server, e.path, tr.name, resp.StatusCode)
			}
		}
	}
}

// Every rejection either server sends is application/json with an
// "error" field — handler rejections included, not only the auth
// middleware's and the recovery gate's.
func TestHandlerRejectionsAreJSON(t *testing.T) {
	srvs := servers(t)
	for name, path := range map[string]string{"coordinator": "/v1/status", "service": "/v1/statusz"} {
		rejections := []*http.Response{post(t, srvs[name].URL+path, "{}")}
		if name == "coordinator" {
			// A plan-hash mismatch is a 409 from the coordinator itself.
			rejections = append(rejections, post(t, srvs[name].URL+"/v1/lease", `{"worker":"w","plan_hash":"x"}`))
		} else {
			resp, err := http.Get(srvs[name].URL + "/v1/result/nope")
			if err != nil {
				t.Fatal(err)
			}
			rejections = append(rejections, resp)
		}
		for _, resp := range rejections {
			var body map[string]string
			err := json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if resp.StatusCode/100 != 4 || resp.Header.Get("Content-Type") != "application/json" || err != nil || body["error"] == "" {
				t.Errorf("%s %s: status %d, Content-Type %q, body %v (%v)", name, resp.Request.URL.Path,
					resp.StatusCode, resp.Header.Get("Content-Type"), body, err)
			}
		}
	}
}
