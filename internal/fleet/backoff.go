package fleet

import (
	"math"
	"net/http"
	"strconv"
	"time"
)

// Backoff bounds for RetryDelay's fallback schedule.
const (
	retryBase = 250 * time.Millisecond
	retryCap  = 5 * time.Second
)

// RetryDelay returns how long a client should wait before retrying a
// backpressured request. Servers that reject with 429/503 say when to
// come back via the Retry-After header (both barracudad and the
// coordinator send it); honoring it matters because the hint is sized
// to the server's actual recovery — a token-bucket refill or one queue
// slot draining — where blind exponential backoff either hammers a
// saturated server or oversleeps an almost-free one. When the header is
// absent or unparseable, the fallback is bounded exponential backoff on
// the attempt count (250ms, 500ms, 1s, ... capped at 5s).
//
// resp may be nil (transport error: no response at all); attempt counts
// from 0.
func RetryDelay(resp *http.Response, attempt int) time.Duration {
	if resp != nil {
		if d, ok := parseRetryAfter(resp.Header.Get("Retry-After")); ok {
			return d
		}
	}
	if attempt < 0 {
		attempt = 0
	}
	d := retryBase << uint(attempt)
	if d > retryCap || d <= 0 { // <=0 guards shift overflow
		d = retryCap
	}
	return d
}

// parseRetryAfter accepts exactly RFC 9110's two forms: delay-seconds
// (1*DIGIT, no sign, fraction or unit, within a Duration) and HTTP-date.
// Anything else is not a hint.
func parseRetryAfter(v string) (time.Duration, bool) {
	if secs, err := strconv.ParseUint(v, 10, 64); err == nil {
		if secs > math.MaxInt64/uint64(time.Second) {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(v); err == nil {
		d := time.Until(t)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

// RetryableStatus reports whether an HTTP status is worth retrying at
// all (the backpressure and transient-failure family).
func RetryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code >= 500
}
