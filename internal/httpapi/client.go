package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Client issues single JSON requests against one server.
type Client struct {
	// Base is the server root, e.g. "http://host:8077"; a trailing slash
	// is ignored.
	Base string
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client
	// Token, when set, is sent as `Authorization: Bearer <Token>`.
	Token string
	// Timeout bounds each request; 0 leaves the transport's limits in
	// charge.
	Timeout time.Duration
}

// Do sends one request to Base+path: body, when non-nil, is posted as
// application/json, and a 2xx answer is decoded into out (unless out is
// nil). A non-2xx answer is returned as an *Error carrying the code, the
// Retry-After wait, and the JSON "error" field (or the raw text); any
// other error is a transport failure.
func (c Client) Do(ctx context.Context, method, path string, body []byte, out any) error {
	if c.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimSuffix(c.Base, "/")+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(req, resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// decodeError turns a non-2xx answer into an *Error.
func decodeError(req *http.Request, resp *http.Response) *Error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	e := &Error{Code: resp.StatusCode}
	msg := string(bytes.TrimSpace(data))
	var rej struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &rej) == nil && rej.Error != "" {
		e.Body, msg = data, rej.Error
	}
	e.Msg = fmt.Sprintf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, msg)
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		e.RetryAfter = time.Duration(secs) * time.Second
	}
	return e
}

// Retry calls attempt until it succeeds, ctx ends, retryable turns its
// error down, or budget has passed since the first attempt; budget <= 0
// means one attempt. Between attempts it sleeps the next backoff wait or
// the answer's Retry-After, whichever is longer. It returns the last
// attempt's error, or ctx's error if ctx ends during a sleep.
func Retry(ctx context.Context, bo *Backoff, budget time.Duration, retryable func(error) bool, attempt func() error) error {
	deadline := time.Now().Add(budget)
	var sleep Sleeper
	defer sleep.Stop()
	for {
		err := attempt()
		if err == nil || ctx.Err() != nil || budget <= 0 || time.Now().After(deadline) || !retryable(err) {
			return err
		}
		wait := bo.Next()
		var e *Error
		if errors.As(err, &e) && e.RetryAfter > wait {
			wait = e.RetryAfter
		}
		if err := sleep.Sleep(ctx, wait); err != nil {
			return err
		}
	}
}

// The retry predicates of the clients. A transport failure means no
// answer came back; a refused connection additionally proves the request
// never reached a server.

// RetryAgent approves retrying a distributed-sweep agent's request: any
// transport failure (including a per-request timeout), or 429, 502, 503
// or 504. Every coordinator endpoint is idempotent.
func RetryAgent(err error) bool {
	return transient(err, false, http.StatusTooManyRequests,
		http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout)
}

// RetryJoin approves retrying an agent's first GET of the run: any
// transport failure (the coordinator is not up yet) or a 503 (it is up
// but still replaying its journal).
func RetryJoin(err error) bool {
	return transient(err, false, http.StatusServiceUnavailable)
}

// RetryGet approves retrying an idempotent service GET: any transport
// failure, or 502, 503 or 504.
func RetryGet(err error) bool {
	return transient(err, false,
		http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout)
}

// RetrySubmit approves retrying a service submission, which is not
// idempotent: only a refused connection or a 503, both of which prove
// the job was never admitted.
func RetrySubmit(err error) bool {
	return transient(err, true, http.StatusServiceUnavailable)
}

func transient(err error, refusedOnly bool, codes ...int) bool {
	var e *Error
	if errors.As(err, &e) {
		for _, c := range codes {
			if e.Code == c {
				return true
			}
		}
		return false
	}
	return !refusedOnly || errors.Is(err, syscall.ECONNREFUSED)
}

// Sleeper waits on one reused timer, so polling and retry loops do not
// allocate a fresh timer per wait. The zero value is ready; Stop it when
// done.
type Sleeper struct {
	t *time.Timer
}

// Sleep waits d, or returns ctx's error as soon as ctx ends.
func (s *Sleeper) Sleep(ctx context.Context, d time.Duration) error {
	if s.t == nil {
		s.t = time.NewTimer(d)
	} else {
		s.t.Reset(d)
	}
	select {
	case <-ctx.Done():
		if !s.t.Stop() {
			select { // drain a tick that raced the cancelation
			case <-s.t.C:
			default:
			}
		}
		return ctx.Err()
	case <-s.t.C:
		return nil
	}
}

// Stop releases the timer.
func (s *Sleeper) Stop() {
	if s.t != nil {
		s.t.Stop()
	}
}

// Backoff defaults for NewBackoff when a caller passes zero values.
const (
	defaultBase = 200 * time.Millisecond
	defaultCap  = 5 * time.Second
)

// Backoff produces the waits of one retry session with capped
// exponential backoff and "equal jitter": the wait before the n-th retry
// is half a deterministic exponentially growing ceiling plus a uniformly
// random half, so a fleet of clients that failed together fans back out
// instead of thundering back in lockstep. The random source is seeded
// explicitly, which keeps tests reproducible. A Backoff is not safe for
// concurrent use; each retrying loop owns one.
type Backoff struct {
	base, cap time.Duration
	seed      int64
	rng       *rand.Rand // seeded on the first Next
	n         uint
}

// NewBackoff builds a backoff policy: waits start around base, double
// each retry, and are capped at cap. base <= 0 means 200ms, cap <= 0
// means 5s (a cap below base is raised to base). seed 0 draws a seed
// from the wall clock; tests pass a fixed nonzero seed.
func NewBackoff(base, cap time.Duration, seed int64) *Backoff {
	if base <= 0 {
		base = defaultBase
	}
	if cap <= 0 {
		cap = defaultCap
	}
	if cap < base {
		cap = base
	}
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Backoff{base: base, cap: cap, seed: seed}
}

// Next returns the wait before the next retry and advances the session:
// uniformly random in [ceil/2, ceil], where ceil doubles from base up to
// the cap.
func (b *Backoff) Next() time.Duration {
	if b.rng == nil {
		b.rng = rand.New(rand.NewSource(b.seed))
	}
	ceil := b.base << b.n
	if ceil <= 0 || ceil > b.cap { // <= 0: the shift overflowed
		ceil = b.cap
	} else {
		b.n++
	}
	half := ceil / 2
	return half + time.Duration(b.rng.Int63n(int64(half)+1))
}

// Reset restarts the exponential ramp (after a success, say).
func (b *Backoff) Reset() { b.n = 0 }
