// Package client is the native Go client for critloadd, the
// classification-and-simulation service.
//
// It is built for sustained high-QPS use: the default transport keeps a
// deep pool of keep-alive connections to the daemon, every operation
// retries transient failures (transport errors, 429, 5xx) with exponential
// backoff and jitter, honouring the server's Retry-After push-back.
// Per-operation counters and latency histograms are available from Stats at
// any time.
//
// Typical use:
//
//	c, err := client.New(client.Config{BaseURL: "http://localhost:8321"})
//	res, err := c.Classify(ctx, ptxSource)
//	job, err := c.RunJob(ctx, client.JobSpec{Workload: "2mm", Mode: "timing", Size: 32})
//
// The batch endpoint amortizes HTTP overhead on the classify hot path:
//
//	out, err := c.ClassifyBatch(ctx, []client.BatchItem{{ID: "k1", PTX: src1}, ...})
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"time"

	"critload/pkg/api"
)

// Default tuning. Overridable per field in Config; zero values select these.
const (
	DefaultMaxRetries     = 3
	DefaultRetryBaseDelay = 50 * time.Millisecond
	DefaultRetryMaxDelay  = 2 * time.Second
)

// maxResponseBytes bounds how much of a response body the client will read;
// critloadd responses are JSON snapshots, never bulk data.
const maxResponseBytes = 32 << 20

// Config configures a Client. Only BaseURL is required.
type Config struct {
	// BaseURL locates the daemon, e.g. "http://localhost:8321".
	BaseURL string
	// HTTPClient overrides the default pooled client. Leave its Timeout
	// zero — long job polls hold responses open; use contexts instead.
	HTTPClient *http.Client
	// UserAgent overrides the default User-Agent header.
	UserAgent string
	// MaxRetries is how many times one operation is re-attempted after a
	// retryable failure (0 = DefaultMaxRetries, negative = no retries).
	MaxRetries int
	// RetryBaseDelay seeds the exponential backoff (0 = default). Attempt n
	// backs off around base<<n, jittered, capped at RetryMaxDelay — unless
	// the server's Retry-After asks for longer.
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps the backoff (0 = default).
	RetryMaxDelay time.Duration
}

// Client is a critloadd API client. It is safe for concurrent use; one
// Client should be shared across all goroutines talking to one daemon so
// they share its connection pool and stats.
type Client struct {
	base    *url.URL
	httpc   *http.Client
	ua      string
	retries int
	baseDel time.Duration
	maxDel  time.Duration
	stats   *statsSet
	jitter  *jitterSource
}

// New validates cfg and builds a Client.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("client: config has no BaseURL")
	}
	base, err := url.Parse(cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("client: parsing BaseURL: %w", err)
	}
	if base.Scheme != "http" && base.Scheme != "https" {
		return nil, fmt.Errorf("client: BaseURL scheme %q is not http(s)", base.Scheme)
	}
	c := &Client{
		base:    base,
		httpc:   cfg.HTTPClient,
		ua:      cfg.UserAgent,
		retries: cfg.MaxRetries,
		baseDel: cfg.RetryBaseDelay,
		maxDel:  cfg.RetryMaxDelay,
		stats:   newStatsSet(),
		jitter:  newJitterSource(),
	}
	if c.httpc == nil {
		c.httpc = &http.Client{Transport: defaultTransport()}
	}
	if c.ua == "" {
		c.ua = "critload-client/1"
	}
	switch {
	case c.retries == 0:
		c.retries = DefaultMaxRetries
	case c.retries < 0:
		c.retries = 0
	}
	if c.baseDel <= 0 {
		c.baseDel = DefaultRetryBaseDelay
	}
	if c.maxDel <= 0 {
		c.maxDel = DefaultRetryMaxDelay
	}
	return c, nil
}

// defaultTransport is tuned for many concurrent workers hammering one
// daemon: connection reuse is the whole point of a native client, so the
// per-host idle pool is deep enough that a soak's worth of workers never
// churn through fresh dials.
func defaultTransport() *http.Transport {
	return &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   5 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:          512,
		MaxIdleConnsPerHost:   512,
		IdleConnTimeout:       90 * time.Second,
		TLSHandshakeTimeout:   5 * time.Second,
		ExpectContinueTimeout: time.Second,
	}
}

// Close releases the client's idle connections. The Client must not be used
// afterwards.
func (c *Client) Close() {
	c.httpc.CloseIdleConnections()
}

// Stats snapshots the per-operation counters and latency distributions
// accumulated since the client was built.
func (c *Client) Stats() StatsSnapshot { return c.stats.snapshot() }

// APIError is a non-2xx response from the daemon.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the server's error string.
	Message string
	// RetryAfter is the server's Retry-After push-back, when present.
	RetryAfter time.Duration
	// Diagnostics carries per-line validation failures on 422 responses
	// from /v1/ptx; empty otherwise.
	Diagnostics []Diagnostic
}

func (e *APIError) Error() string {
	return fmt.Sprintf("critloadd: %s (HTTP %d)", e.Message, e.Status)
}

// IsRetryable reports whether the error signals a transient server
// condition (429 push-back or a 5xx fault) rather than a caller mistake.
func (e *APIError) IsRetryable() bool {
	switch e.Status {
	case http.StatusTooManyRequests, http.StatusInternalServerError,
		http.StatusBadGateway, http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// do runs one logical operation with retries and stats.
// body (when non-nil) is marshalled once and replayed on every attempt; a
// 2xx response is decoded into out (when non-nil).
func (c *Client) do(ctx context.Context, op, method, path string, query url.Values, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
	}
	start := time.Now()
	err := c.doAttempts(ctx, op, method, path, query, payload, out)
	c.stats.observe(op, time.Since(start), err)
	return err
}

func (c *Client) doAttempts(ctx context.Context, op, method, path string, query url.Values, payload []byte, out any) error {
	u := c.base.JoinPath(path)
	if query != nil {
		u.RawQuery = query.Encode()
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		lastErr = c.attempt(ctx, method, u, payload, out)
		if lastErr == nil {
			return nil
		}
		retryable, retryAfter := retryDisposition(lastErr)
		if !retryable || attempt >= c.retries {
			return lastErr
		}
		delay := backoffDelay(c.baseDel, c.maxDel, attempt, c.jitter)
		if retryAfter > delay {
			delay = retryAfter
		}
		c.stats.retry(op)
		if err := sleepCtx(ctx, delay); err != nil {
			return lastErr
		}
	}
}

// attempt is one HTTP round trip: build, send, classify, decode.
func (c *Client) attempt(ctx context.Context, method string, u *url.URL, payload []byte, out any) error {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, u.String(), rd)
	if err != nil {
		return fmt.Errorf("client: building request: %w", err)
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("Accept", "application/json")
	req.Header.Set("User-Agent", c.ua)

	resp, err := c.httpc.Do(req)
	if err != nil {
		return &transportError{err: err}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return &transportError{err: fmt.Errorf("reading response: %w", err)}
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if out == nil {
			return nil
		}
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("client: decoding response: %w", err)
		}
		return nil
	}
	var body api.Error
	_ = json.Unmarshal(raw, &body) // a non-JSON body leaves it zero
	return &APIError{
		Status:      resp.StatusCode,
		Message:     errorMessage(raw, body.Message, resp.StatusCode),
		RetryAfter:  parseRetryAfter(resp.Header.Get("Retry-After")),
		Diagnostics: body.Diagnostics,
	}
}

// transportError wraps a failed round trip (dial, reset, timeout); always
// retryable. Unwrap exposes the cause so errors.Is(err, context.Canceled)
// and friends keep working through it.
type transportError struct{ err error }

func (e *transportError) Error() string { return "client: " + e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// retryDisposition classifies one attempt's failure: whether another
// attempt may help, and how long the server asked us to hold off.
func retryDisposition(err error) (retryable bool, retryAfter time.Duration) {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.IsRetryable(), apiErr.RetryAfter
	}
	var tErr *transportError
	if errors.As(err, &tErr) {
		// A round trip cut short by the caller's own context is not a server
		// fault; retrying against a dead context just burns the backoff.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return false, 0
		}
		return true, 0
	}
	return false, 0
}

// errorMessage picks the server's api.Error message, falling back to the
// raw body or the status text for non-JSON bodies (proxies, panics
// mid-write).
func errorMessage(raw []byte, decoded string, status int) string {
	if decoded != "" {
		return decoded
	}
	if msg := strings.TrimSpace(string(raw)); msg != "" && len(msg) <= 200 {
		return msg
	}
	return http.StatusText(status)
}

// sleepCtx waits d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
