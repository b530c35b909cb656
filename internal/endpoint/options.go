package endpoint

import "net/http"

// Option configures a Client at construction (see NewClient). Options
// apply in order, so a later option overrides an earlier one.
type Option func(*Client)

// WithRetryPolicy sets the client's retry behavior. Zero fields of the
// policy select the package defaults; MaxAttempts 1 disables retries.
func WithRetryPolicy(p RetryPolicy) Option {
	return func(c *Client) { c.retrier = newRetrier(p) }
}

// WithHTTPClient substitutes the underlying *http.Client — for custom
// transports, connection pools, proxies, or test instrumentation. The
// client should have no Timeout of its own: the retry policy's
// per-attempt timeout bounds each try, and the caller's context bounds
// the whole exchange.
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) {
		if h != nil {
			c.client = h
		}
	}
}
