package endpoint

// Option configures a Client at construction (see NewClient). Options
// apply in order, so a later option overrides an earlier one.
type Option func(*Client)

// WithRetryPolicy sets the client's retry behavior. Zero fields of the
// policy select the package defaults; MaxAttempts 1 disables retries.
//
//sapphire:allow testonly internal/federation/flap_test.go needs fast retries against a flapping member
func WithRetryPolicy(p RetryPolicy) Option {
	return func(c *Client) { c.retrier = newRetrier(p) }
}
