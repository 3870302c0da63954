// Command barracudad runs the BARRACUDA race detector as a long-running
// HTTP service: submit PTX (or a named built-in benchmark) as a job,
// poll for the race report, and let the content-addressed module cache
// amortize parse+instrument+load across repeated submissions.
//
// Usage:
//
//	barracudad -addr :8321 -workers 4 -queue 64 -cache 32
//
//	curl -s localhost:8321/healthz
//	curl -s -X POST localhost:8321/jobs -d '{"ptx":"...","kernel":"k","grid":1,"block":32,"buffers":[4]}'
//	curl -s 'localhost:8321/jobs/job-1?wait_ms=5000'
//	curl -s localhost:8321/metrics
//
// The daemon runs one detector, the default configuration, on every job:
// no request carries detector knobs (a body with a "config" object is a
// 400 naming the field), and the module cache is keyed on the source
// alone. The ablations are the local barracuda CLI's flags. Per-job
// shadow stats ride the result's "shadow" object; aggregated shadow
// pressure is exposed on /metrics and in fleet heartbeats.
//
// Besides the JSON job API, the daemon serves the binary streaming
// protocol on GET /v1/stream (HTTP upgrade; see internal/wire): chunked
// module upload into a content-addressed source cache (-src-cache),
// pipelined launches, and race frames pushed as the detector finds
// them. Streaming clients present an API key in the handshake;
// -tenant-rate / -tenant-burst size the per-key token bucket, and
// per-tenant traffic counters appear under "tenants" on /v1/metrics.
// Use `barracuda -server URL -stream` as a ready-made client.
//
// Fleet modes:
//
//	barracudad -coordinator -addr :8320
//	barracudad -addr :8321 -join http://coord:8320 -advertise http://worker1:8321
//
// A coordinator owns no detection workers of its own; it routes jobs to
// joined workers by module cache key so repeat submissions land on the
// node whose session cache is already warm, over /v1/stream sessions it
// keeps open between jobs (one redial, logged, when an idle one turns out
// to have been cut). Workers join with -join and otherwise behave exactly
// like a standalone daemon.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // /debug/pprof/* on the -pprof listener
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"barracuda/internal/fleet"
	"barracuda/internal/server"
)

func main() {
	var (
		addr    = flag.String("addr", ":8321", "HTTP listen address")
		workers = flag.Int("workers", 2, "concurrent detection workers")
		queue   = flag.Int("queue", 64, "job queue capacity (beyond it, submissions get 429)")
		cache   = flag.Int("cache", 32, "warm module-session cache entries (LRU)")
		timeout = flag.Duration("timeout", 30*time.Second, "default per-job wall-clock budget")
		budget  = flag.Uint64("budget", 1<<24, "default per-job warp-instruction budget")
		maxBuf  = flag.Int64("maxbuf", 1<<30, "per-job total buffer byte cap (-1 = unlimited)")
		pprof   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")

		srcCache    = flag.Int("src-cache", 64, "content-addressed PTX source cache entries for the streaming protocol (LRU)")
		tenantRate  = flag.Float64("tenant-rate", 100, "per-tenant tokens per second on /v1/stream: one per handshake and one per launch, so one per job on a session kept open, as a fleet coordinator's are (negative disables rate limiting)")
		tenantBurst = flag.Float64("tenant-burst", 200, "per-tenant token-bucket depth on /v1/stream")

		coordinator = flag.Bool("coordinator", false, "run as a fleet coordinator instead of a worker (no local detection)")
		join        = flag.String("join", "", "coordinator base URL to register with (worker mode), e.g. http://coord:8320")
		nodeID      = flag.String("node-id", "", "stable fleet node identity (default: derived from -advertise)")
		advertise   = flag.String("advertise", "", "base URL the coordinator should reach this worker at (default: http://<addr>)")
		heartbeat   = flag.Duration("heartbeat", 2*time.Second, "fleet heartbeat interval")
	)
	flag.Parse()

	if *pprof != "" {
		// Profiling stays off the job-serving listener so a capture can
		// never be triggered (or slowed) by detection traffic; the
		// DefaultServeMux carries the /debug/pprof/* handlers registered
		// by the net/http/pprof import.
		go func() {
			log.Printf("barracudad: pprof on http://%s/debug/pprof/", *pprof)
			if err := http.ListenAndServe(*pprof, nil); err != nil {
				log.Printf("barracudad: pprof listener: %v", err)
			}
		}()
	}

	if *coordinator {
		if *join != "" {
			fmt.Fprintln(os.Stderr, "barracudad: -coordinator and -join are mutually exclusive")
			os.Exit(2)
		}
		runCoordinator(*addr, *heartbeat)
		return
	}

	srv := server.New(server.SchedulerOptions{
		Workers:          *workers,
		QueueCap:         *queue,
		CacheEntries:     *cache,
		DefaultTimeout:   *timeout,
		DefaultMaxInstrs: *budget,
		MaxBufferBytes:   *maxBuf,
		SrcEntries:       *srcCache,
		Tenants:          server.TenantOptions{RatePerSec: *tenantRate, Burst: *tenantBurst},
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("barracudad: listening on %s (%d workers, queue %d, cache %d)",
		*addr, *workers, *queue, *cache)

	var link *fleet.WorkerLink
	if *join != "" {
		adv := *advertise
		if adv == "" {
			adv = advertiseFromAddr(*addr)
		}
		id := *nodeID
		if id == "" {
			id = fleet.DefaultNodeID(adv)
		}
		link = fleet.StartWorkerLink(strings.TrimRight(*join, "/"), id, adv, srv.Scheduler(), *heartbeat, nil)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "barracudad:", err)
		os.Exit(1)
	case s := <-sig:
		log.Printf("barracudad: %v, shutting down", s)
		if link != nil {
			// Drain before closing the job surface: the coordinator stops
			// routing new work here, and jobs it already forwarded finish
			// and report back instead of being requeued on another node.
			link.Drain(30 * time.Second)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
		srv.Close()
	}
}

func runCoordinator(addr string, heartbeat time.Duration) {
	coord := fleet.NewHTTPCoordinator(fleet.Options{
		SuspectAfter: 5 * heartbeat / 2,
		DeadAfter:    5 * heartbeat,
	})
	httpSrv := &http.Server{Addr: addr, Handler: coord.Handler()}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("barracudad: coordinator listening on %s (suspect %.1fs, dead %.1fs)",
		addr, (5 * heartbeat / 2).Seconds(), (5 * heartbeat).Seconds())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "barracudad:", err)
		os.Exit(1)
	case s := <-sig:
		log.Printf("barracudad: %v, shutting down", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
		coord.Close()
	}
}

// advertiseFromAddr guesses a reachable base URL from the listen
// address: ":8321" has no host, so default to localhost for the
// single-machine case; operators spanning machines pass -advertise.
func advertiseFromAddr(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return "http://localhost" + addr
	}
	return "http://" + addr
}
