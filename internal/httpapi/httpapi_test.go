package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"
)

// wantJSONRejection checks a rejection's status, Content-Type and
// {"error": ...} body.
func wantJSONRejection(t *testing.T, resp *http.Response, code int) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != code {
		t.Fatalf("status %d, want %d", resp.StatusCode, code)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%d rejection has Content-Type %q, want application/json", code, ct)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body["error"] == "" || body["error"] == nil {
		t.Fatalf("%d rejection body not a JSON error (%v, %v)", code, body, err)
	}
}

// Every ReadJSON refusal is a JSON rejection with the right code.
func TestReadJSONRejections(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var v struct{ A int }
		if ReadJSON(w, r, &v, 64) != nil {
			return
		}
		WriteJSON(w, v)
	}))
	defer srv.Close()

	cases := []struct {
		name, method, ctype, body string
		code                      int
	}{
		{"GET", http.MethodGet, "", "", http.StatusMethodNotAllowed},
		{"no Content-Type", http.MethodPost, "", `{"a":1}`, http.StatusUnsupportedMediaType},
		{"text/plain", http.MethodPost, "text/plain", `{"a":1}`, http.StatusUnsupportedMediaType},
		{"value over the limit", http.MethodPost, "application/json", `{"b":"` + strings.Repeat("x", 64) + `"}`, http.StatusRequestEntityTooLarge},
		{"trailer over the limit", http.MethodPost, "application/json", `{"a":1}` + strings.Repeat(" ", 64), http.StatusRequestEntityTooLarge},
		{"malformed", http.MethodPost, "application/json", `{"a":`, http.StatusBadRequest},
		{"trailing garbage", http.MethodPost, "application/json", `{"a":1}garbage`, http.StatusBadRequest},
		{"two values", http.MethodPost, "application/json", `{"a":1} {"a":2}`, http.StatusBadRequest},
		{"ok with parameters", http.MethodPost, "application/json; charset=utf-8", "{\"a\":1}\n\t ", http.StatusOK},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, _ := http.NewRequest(c.method, srv.URL, strings.NewReader(c.body))
			if c.ctype != "" {
				req.Header.Set("Content-Type", c.ctype)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if c.code == http.StatusOK {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status %d, want 200", resp.StatusCode)
				}
				return
			}
			wantJSONRejection(t, resp, c.code)
		})
	}
}

func TestRequireTokenChallenges(t *testing.T) {
	srv := httptest.NewServer(RequireToken("sesame", "test", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, "ok")
	})))
	defer srv.Close()
	for _, auth := range []string{"", "Bearer wrong", "sesame", "Bearer sesame2"} {
		req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if h := resp.Header.Get("WWW-Authenticate"); h != `Bearer realm="test"` {
			t.Fatalf("auth %q: WWW-Authenticate %q", auth, h)
		}
		wantJSONRejection(t, resp, http.StatusUnauthorized)
	}
	err := Client{Base: srv.URL, Token: "sesame"}.Do(context.Background(), http.MethodGet, "/", nil, nil)
	if err != nil {
		t.Fatalf("authenticated request: %v", err)
	}
}

func TestGateRejectsUntilReady(t *testing.T) {
	g := NewGate()
	srv := httptest.NewServer(g)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("gated Retry-After = %q, want 1", ra)
	}
	wantJSONRejection(t, resp, http.StatusServiceUnavailable)

	g.Ready(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { WriteJSON(w, 1) }))
	var n int
	if err := (Client{Base: srv.URL}).Do(context.Background(), http.MethodGet, "/", nil, &n); err != nil || n != 1 {
		t.Fatalf("after Ready: %v, %d", err, n)
	}
}

// A server-side Error comes back through the client helper as the same
// code and wait, with the server's message; the Retry-After header is the
// wait rounded up to whole seconds.
func TestErrorRoundTrip(t *testing.T) {
	var served error
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		Reject(w, served)
	}))
	defer srv.Close()
	cases := []struct {
		served error
		code   int
		wait   time.Duration
		msg    string
		custom bool // the served Body carries a "depth" field
	}{
		{&Error{Code: 429, Msg: "slow down", RetryAfter: 3 * time.Second}, 429, 3 * time.Second, "slow down", false},
		{&Error{Code: 503, Msg: "soon", RetryAfter: 2 * time.Millisecond}, 503, time.Second, "soon", false},
		{fmt.Errorf("wrapped: %w", Rejectf(409, "conflict %d", 7)), 409, 0, "wrapped: conflict 7", false},
		{errors.New("plain"), 500, 0, "plain", false},
		{&Error{Code: 429, Msg: "full", Body: json.RawMessage(`{"error":"full","depth":4}`)}, 429, 0, "full", true},
	}
	for _, c := range cases {
		served = c.served
		err := Client{Base: srv.URL + "/"}.Do(context.Background(), http.MethodGet, "/x", nil, nil)
		var e *Error
		if !errors.As(err, &e) {
			t.Fatalf("%v: client got %T %v, want *Error", c.served, err, err)
		}
		if e.Code != c.code || e.RetryAfter != c.wait {
			t.Fatalf("%v: decoded code %d wait %v, want %d %v", c.served, e.Code, e.RetryAfter, c.code, c.wait)
		}
		if want := fmt.Sprintf("GET /x: %d %s: %s", c.code, http.StatusText(c.code), c.msg); e.Msg != want {
			t.Fatalf("decoded message %q, want %q", e.Msg, want)
		}
		var body map[string]any
		if err := json.Unmarshal(e.Body, &body); err != nil || (body["depth"] != nil) != c.custom {
			t.Fatalf("%v: decoded body %s (%v)", c.served, e.Body, err)
		}
	}
}

// A non-JSON error answer (a proxy's, say) falls back to its raw text.
func TestClientDecodesRawTextError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "upstream down", http.StatusBadGateway)
	}))
	defer srv.Close()
	err := Client{Base: srv.URL}.Do(context.Background(), http.MethodPost, "/p", []byte("{}"), nil)
	var e *Error
	if !errors.As(err, &e) || e.Code != 502 || e.Body != nil || !strings.HasSuffix(e.Msg, ": upstream down") {
		t.Fatalf("got %#v", err)
	}
}

func TestRetryPredicates(t *testing.T) {
	refused := fmt.Errorf("dial: %w", syscall.ECONNREFUSED)
	transport := errors.New("i/o timeout")
	code := func(c int) error { return &Error{Code: c} }
	preds := []struct {
		name string
		f    func(error) bool
	}{{"agent", RetryAgent}, {"join", RetryJoin}, {"get", RetryGet}, {"submit", RetrySubmit}}
	// Columns follow preds.
	cases := []struct {
		err  error
		want [4]bool
	}{
		{refused, [4]bool{true, true, true, true}},
		{transport, [4]bool{true, true, true, false}},
		{code(400), [4]bool{false, false, false, false}},
		{code(401), [4]bool{false, false, false, false}},
		{code(429), [4]bool{true, false, false, false}},
		{code(500), [4]bool{false, false, false, false}},
		{code(502), [4]bool{true, false, true, false}},
		{code(503), [4]bool{true, true, true, true}},
		{code(504), [4]bool{true, false, true, false}},
		{fmt.Errorf("wrapped: %w", code(503)), [4]bool{true, true, true, true}},
	}
	for _, c := range cases {
		for i, p := range preds {
			if got := p.f(c.err); got != c.want[i] {
				t.Errorf("%s(%v) = %v, want %v", p.name, c.err, got, c.want[i])
			}
		}
	}
}

func TestRetryLoop(t *testing.T) {
	ctx := context.Background()
	bo := func() *Backoff { return NewBackoff(time.Millisecond, time.Millisecond, 1) }

	// Retries until success.
	n := 0
	err := Retry(ctx, bo(), time.Minute, RetryGet, func() error {
		if n++; n < 3 {
			return code503
		}
		return nil
	})
	if err != nil || n != 3 {
		t.Fatalf("retry to success: %v after %d attempts", err, n)
	}

	// A rejected error and a non-positive budget each stop at once.
	n = 0
	if err := Retry(ctx, bo(), time.Minute, RetryGet, func() error { n++; return Rejectf(400, "no") }); err == nil || n != 1 {
		t.Fatalf("non-retryable: %v after %d attempts", err, n)
	}
	n = 0
	if err := Retry(ctx, bo(), 0, RetryGet, func() error { n++; return code503 }); err != code503 || n != 1 {
		t.Fatalf("zero budget: %v after %d attempts", err, n)
	}

	// An answer's Retry-After outweighs the backoff, and cancelation cuts
	// the wait short.
	cctx, cancel := context.WithCancel(ctx)
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	err = Retry(cctx, bo(), time.Minute, RetryGet, func() error {
		return &Error{Code: 503, RetryAfter: time.Hour}
	})
	if !errors.Is(err, context.Canceled) || time.Since(start) > 5*time.Second {
		t.Fatalf("canceled mid-wait: %v after %v", err, time.Since(start))
	}
}

var code503 = &Error{Code: http.StatusServiceUnavailable, Msg: "busy"}
