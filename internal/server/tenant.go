package server

import (
	"sort"
	"sync"
	"time"
)

// TenantOptions sizes the per-tenant admission control on the streaming
// path. A tenant is one API key presented in the handshake frame; the
// empty key is the anonymous tenant (allowed, but sharing one bucket).
type TenantOptions struct {
	// RatePerSec is the steady-state launch admission rate per tenant
	// (default 100/s; <0 disables rate limiting).
	RatePerSec float64
	// Burst is the token-bucket depth (default 200).
	Burst float64
}

// maxTenants bounds the registry. Past it, new keys share the anonymous
// bucket rather than growing without bound.
const maxTenants = 1024

func (o TenantOptions) withDefaults() TenantOptions {
	if o.RatePerSec == 0 {
		o.RatePerSec = 100
	}
	if o.Burst <= 0 {
		o.Burst = 200
	}
	return o
}

// tenant is one API key's bucket and counters.
type tenant struct {
	mu       sync.Mutex
	tokens   float64
	last     time.Time
	jobs     int64
	races    int64
	bytesIn  int64
	bytesOut int64
	rejected int64
}

// TenantRegistry tracks per-API-key token buckets and traffic counters
// for the streaming protocol.
type TenantRegistry struct {
	opts TenantOptions

	mu      sync.Mutex
	tenants map[string]*tenant
}

// NewTenantRegistry builds a registry.
func NewTenantRegistry(opts TenantOptions) *TenantRegistry {
	return &TenantRegistry{opts: opts.withDefaults(), tenants: make(map[string]*tenant)}
}

func (r *TenantRegistry) get(key string) *tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[key]
	if !ok {
		if len(r.tenants) >= maxTenants {
			key = "" // registry full: overflow keys share the anonymous bucket
			if t, ok = r.tenants[key]; ok {
				return t
			}
		}
		t = &tenant{tokens: r.opts.Burst, last: time.Now()}
		r.tenants[key] = t
	}
	return t
}

// Admit spends one launch token for key. When the bucket is dry it
// returns false and the duration after which one token will be
// available — the Retry-After hint the reject frame carries.
func (r *TenantRegistry) Admit(key string) (bool, time.Duration) {
	if r.opts.RatePerSec < 0 {
		return true, 0
	}
	t := r.get(key)
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	t.tokens += now.Sub(t.last).Seconds() * r.opts.RatePerSec
	if t.tokens > r.opts.Burst {
		t.tokens = r.opts.Burst
	}
	t.last = now
	if t.tokens >= 1 {
		t.tokens--
		return true, 0
	}
	t.rejected++
	wait := time.Duration((1 - t.tokens) / r.opts.RatePerSec * float64(time.Second))
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return false, wait
}

// ObserveJob counts one admitted launch for key.
func (r *TenantRegistry) ObserveJob(key string) {
	t := r.get(key)
	t.mu.Lock()
	t.jobs++
	t.mu.Unlock()
}

// ObserveRaces counts races pushed to key.
func (r *TenantRegistry) ObserveRaces(key string, n int64) {
	t := r.get(key)
	t.mu.Lock()
	t.races += n
	t.mu.Unlock()
}

// ObserveBytes counts wire traffic for key.
func (r *TenantRegistry) ObserveBytes(key string, in, out int64) {
	t := r.get(key)
	t.mu.Lock()
	t.bytesIn += in
	t.bytesOut += out
	t.mu.Unlock()
}

// TenantJSON is one tenant's accounting snapshot on /v1/metrics. The
// key is reported verbatim; deployments that treat keys as secrets
// should issue opaque tokens, not credentials, as API keys.
type TenantJSON struct {
	Key      string `json:"key"`
	Jobs     int64  `json:"jobs"`
	Races    int64  `json:"races"`
	BytesIn  int64  `json:"bytes_in"`
	BytesOut int64  `json:"bytes_out"`
	Rejected int64  `json:"rejected"`
}

// Snapshot lists per-tenant counters, sorted by key for stable output.
func (r *TenantRegistry) Snapshot() []TenantJSON {
	r.mu.Lock()
	keys := make([]string, 0, len(r.tenants))
	for k := range r.tenants {
		keys = append(keys, k)
	}
	r.mu.Unlock()
	sort.Strings(keys)
	out := make([]TenantJSON, 0, len(keys))
	for _, k := range keys {
		t := r.get(k)
		t.mu.Lock()
		out = append(out, TenantJSON{
			Key: k, Jobs: t.jobs, Races: t.races,
			BytesIn: t.bytesIn, BytesOut: t.bytesOut, Rejected: t.rejected,
		})
		t.mu.Unlock()
	}
	return out
}
