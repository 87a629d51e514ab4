// Package httpapi is the HTTP/JSON layer shared by the distributed-sweep
// coordinator (internal/distrib) and the scheduling service
// (internal/service), both server and client side.
//
// Every rejection either server sends is a JSON body {"error": "..."}
// under Content-Type application/json, with a Retry-After header when the
// rejection carries a wait. The clients decode such an answer back into
// the same *Error, so a retry loop can branch on its code and honor its
// wait.
package httpapi

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Error is an HTTP rejection: the status code, a message, and the wait
// a client should observe before retrying (0: none).
type Error struct {
	Code       int
	Msg        string
	RetryAfter time.Duration
	// Body is the JSON body of the rejection. On the server, when set,
	// Reject writes it in place of {"error": ...}; it must carry its own
	// "error" field. On the client it is the answer's raw body, when that
	// was JSON.
	Body json.RawMessage
}

func (e *Error) Error() string { return e.Msg }

// Rejectf builds an *Error with a formatted message.
func Rejectf(code int, format string, args ...any) error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// WriteJSON answers 200 with v encoded as two-space-indented JSON.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Encode marshals v completely before writing, so nothing has
		// been sent yet.
		Reject(w, err)
	}
}

// Get serves GETs with f's answer, written by WriteJSON or Reject;
// other methods are answered 405.
func Get(f func(r *http.Request) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			Reject(w, Rejectf(http.StatusMethodNotAllowed, "GET only"))
			return
		}
		v, err := f(r)
		answer(w, v, err)
	}
}

// Post serves POSTs of a JSON Req, read by ReadJSON, with f's answer.
func Post[Req, Resp any](maxBytes int64, f func(r *http.Request, req Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if ReadJSON(w, r, &req, maxBytes) != nil {
			return
		}
		resp, err := f(r, req)
		answer(w, resp, err)
	}
}

func answer(w http.ResponseWriter, v any, err error) {
	if err != nil {
		Reject(w, err)
		return
	}
	WriteJSON(w, v)
}

// Reject answers err as a JSON rejection. An *Error anywhere in err's
// chain supplies the status code and Retry-After (rounded up to whole
// seconds); anything else is a 500.
func Reject(w http.ResponseWriter, err error) {
	e := &Error{Code: http.StatusInternalServerError}
	errors.As(err, &e)
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int((e.RetryAfter+time.Second-1)/time.Second)))
	}
	var body any = e.Body
	if e.Body == nil {
		body = struct {
			Error string `json:"error"`
		}{err.Error()}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.Code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body) //nolint:errcheck // the connection is already gone if this fails
}

// ReadJSON decodes a POST body of Content-Type application/json, at most
// maxBytes long and holding exactly one JSON value, into v. Anything else
// is answered (405, 415, 413, or 400) and returned as an error, and the
// handler should simply return.
func ReadJSON(w http.ResponseWriter, r *http.Request, v any, maxBytes int64) error {
	err := decodeBody(w, r, v, maxBytes)
	if err != nil {
		Reject(w, err)
	}
	return err
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any, maxBytes int64) error {
	if r.Method != http.MethodPost {
		return Rejectf(http.StatusMethodNotAllowed, "POST only")
	}
	if mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type")); err != nil || mt != "application/json" {
		return Rejectf(http.StatusUnsupportedMediaType,
			"Content-Type %q: POST bodies must be application/json", r.Header.Get("Content-Type"))
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes))
	var mbe *http.MaxBytesError
	err := dec.Decode(v)
	if err == nil {
		// Only whitespace may follow the value.
		if _, err = dec.Token(); err == io.EOF {
			return nil
		}
		if !errors.As(err, &mbe) {
			err = errors.New("data after the JSON value")
		}
	}
	if errors.As(err, &mbe) {
		return Rejectf(http.StatusRequestEntityTooLarge, "request body exceeds the %d byte limit", maxBytes)
	}
	return Rejectf(http.StatusBadRequest, "bad request body: %v", err)
}

// RequireToken demands `Authorization: Bearer <token>` on every request,
// answering 401 with a Bearer challenge for realm otherwise. Both sides
// are hashed before comparing so the comparison is constant time even
// across lengths.
func RequireToken(token, realm string, next http.Handler) http.Handler {
	want := sha256.Sum256([]byte(token))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got := [32]byte{}
		auth, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if ok {
			got = sha256.Sum256([]byte(auth))
		}
		if !ok || subtle.ConstantTimeCompare(want[:], got[:]) != 1 {
			w.Header().Set("WWW-Authenticate", fmt.Sprintf("Bearer realm=%q", realm))
			Reject(w, Rejectf(http.StatusUnauthorized, "missing or invalid bearer token (pass -token)"))
			return
		}
		next.ServeHTTP(w, r)
	})
}

// Gate fronts a handler that is not ready yet: every request is answered
// 503 + Retry-After until Ready installs the real handler. A server sits
// behind one while it builds its state (the coordinator replays its
// journal), so a retrying client sees an honest "come back shortly",
// never a half-recovered answer.
type Gate struct {
	h atomic.Value // http.Handler once Ready
}

// NewGate returns a gate with no handler installed.
func NewGate() *Gate { return &Gate{} }

// Ready installs the real handler; subsequent requests pass through.
func (g *Gate) Ready(h http.Handler) { g.h.Store(h) }

func (g *Gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := g.h.Load().(http.Handler); ok && h != nil {
		h.ServeHTTP(w, r)
		return
	}
	Reject(w, &Error{Code: http.StatusServiceUnavailable,
		Msg: "server is recovering; retry shortly", RetryAfter: time.Second})
}
