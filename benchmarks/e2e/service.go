package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"barracuda/internal/detector"
	"barracuda/internal/fleet"
	"barracuda/internal/server"
	"barracuda/internal/wire"
)

// Service workload shape. The pool is salted into poolModules distinct
// modules so the daemon's module cache (cacheEntries in total, on one node
// or split over two) sees a working set four times its size; zipfS skews
// the draw so that most jobs still hit.
const (
	poolModules  = 256
	zipfS        = 1.1
	cacheEntries = 64
	schedWorkers = 2
	warmJobs     = 200
	clients      = 2
	// sliceLength: the measured interval is cut into slices of this length.
	// Between two slices the clients are idle, the heap is collected and the
	// calibrator probes. jobs_per_s is the median of the slices' rates, so
	// one stall does not set it.
	sliceLength = time.Second
)

// smallBenchmarks are the paper programs cheap enough to be service jobs.
var smallBenchmarks = []string{"hashtable", "nn", "hybridsort", "streamcluster", "bfs_shoc", "pathfinder"}

// servicePool is the bug suite with the small paper programs spread evenly
// through it. Pool order is popularity order: the zipf draw maps rank r to
// module r, and module r is program r mod len(pool). The order is fixed, not
// seeded, so every seed draws from the same cost distribution and only the
// sequence differs.
func servicePool() []*program {
	small := make(map[string]*program)
	for _, p := range suitePrograms() {
		small[p.name] = p
	}
	bugs := bugPrograms()
	every := len(bugs) / len(smallBenchmarks)
	var pool []*program
	for i, p := range bugs {
		pool = append(pool, p)
		if k := (i + 1) / every; (i+1)%every == 0 && k <= len(smallBenchmarks) {
			pool = append(pool, small[smallBenchmarks[k-1]])
		}
	}
	return pool
}

// module is one salted copy of a pool program: same kernel, distinct
// content hash, so it is its own cache entry.
type module struct {
	prog *program
	src  string
}

func buildModules(pool []*program) []module {
	mods := make([]module, poolModules)
	for i := range mods {
		p := pool[i%len(pool)]
		mods[i] = module{prog: p, src: fmt.Sprintf("// salt %d\n%s", i, p.src)}
	}
	return mods
}

// jobSequence is one client's seeded, endless draw of module indices.
func jobSequence(seed int64, client int) func() int {
	z := rand.NewZipf(rand.New(rand.NewSource(seed*clients+int64(client))), zipfS, 1, poolModules-1)
	return func() int { return int(z.Uint64()) }
}

// jobSequences is every client's sequence.
func jobSequences(seed int64) []func() int {
	seqs := make([]func() int, clients)
	for i := range seqs {
		seqs[i] = jobSequence(seed, i)
	}
	return seqs
}

// countConn counts every byte crossing the socket in either direction.
type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countConn) Read(p []byte) (int, error) {
	m, err := c.Conn.Read(p)
	c.n.Add(int64(m))
	return m, err
}

func (c countConn) Write(p []byte) (int, error) {
	m, err := c.Conn.Write(p)
	c.n.Add(int64(m))
	return m, err
}

// outcome is what a client saw of one job. Durations are seconds.
type outcome struct {
	prog          *program
	stream        bool
	wall          float64 // submit start → full report decoded
	submit        float64 // JSON: POST /jobs round trip
	ttfr          float64 // racy verdicts: → first moment the client sees a race
	detectMS      float64 // worker-reported detection wall
	workerTotalMS float64 // worker-reported submit → finish (JSON surfaces)
	cacheHit      bool
	uploadSkipped bool
	node          string
	err           error // transport error, refusal, timeout or wrong verdict
}

// client runs one job to its report.
type client interface {
	do(m *module, sl *spanLog, parent, op int) outcome
	bytes() int64
	close()
}

// jsonClient speaks JSON submit + long-poll, to a daemon or a coordinator.
type jsonClient struct {
	hc   *http.Client
	base string
	wire atomic.Int64
}

func newJSONClient(base string) *jsonClient {
	c := &jsonClient{base: base}
	c.hc = &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return countConn{Conn: conn, n: &c.wire}, nil
		},
	}}
	return c
}

func (c *jsonClient) bytes() int64 { return c.wire.Load() }
func (c *jsonClient) close()       { c.hc.CloseIdleConnections() }

// jobInfo decodes both job envelopes: a daemon's JobInfo, and a
// coordinator's, which wraps the worker's JobInfo and names the node.
type jobInfo struct {
	server.JobInfo
	Worker *server.JobInfo `json:"worker"`
	Node   string          `json:"node"`
}

// decodeJob reads one job envelope from a response with the wanted status.
func decodeJob(resp *http.Response, err error, want int, into *jobInfo) error {
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	*into = jobInfo{}
	return json.NewDecoder(resp.Body).Decode(into)
}

func jobRequest(m *module) server.JobRequest {
	p := m.prog
	return server.JobRequest{
		PTX: m.src, Kernel: p.kernel, Grid: p.grid, Block: p.block,
		Buffers: p.bufs, MaxInstrs: p.budget,
	}
}

func (c *jsonClient) do(m *module, sl *spanLog, parent, op int) outcome {
	out := outcome{prog: m.prog}
	start := time.Now()
	job := sl.begin("client.json.job", parent, op)
	defer sl.end(job)

	id := sl.begin("server.submit", job, op)
	body, err := json.Marshal(jobRequest(m))
	var info jobInfo
	if err == nil {
		resp, perr := c.hc.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
		err = decodeJob(resp, perr, http.StatusAccepted, &info)
	}
	sl.end(id)
	out.submit = time.Since(start).Seconds()
	if err != nil {
		out.err = fmt.Errorf("%s: submit: %w", m.prog.name, err)
		return out
	}

	id = sl.begin("server.poll", job, op)
	for info.Status == server.StatusQueued || info.Status == server.StatusRunning {
		resp, gerr := c.hc.Get(fmt.Sprintf("%s/jobs/%s?wait_ms=30000", c.base, info.ID))
		if err = decodeJob(resp, gerr, http.StatusOK, &info); err != nil {
			break
		}
	}
	sl.end(id)
	out.wall = time.Since(start).Seconds()
	if err != nil {
		out.err = fmt.Errorf("%s: poll: %w", m.prog.name, err)
		return out
	}

	w := &info.JobInfo
	if info.Worker != nil {
		w, out.node = info.Worker, info.Node
	}
	if info.Status != server.StatusDone || w.Result == nil {
		out.err = fmt.Errorf("%s: job %s: %s %s", m.prog.name, info.Status, info.Error, w.Error)
		return out
	}
	out.cacheHit, out.detectMS, out.workerTotalMS = w.CacheHit, w.Result.DetectMS, w.TotalMS
	rep, err := w.Result.CoreReport()
	if err == nil {
		err = m.prog.check(rep)
	}
	out.err = err
	if m.prog.racy {
		out.ttfr = out.wall // JSON shows no race before the whole report
	}
	return out
}

// streamClient holds one /v1/stream connection.
type streamClient struct {
	c    *wire.Client
	wire atomic.Int64
	seq  uint64
}

func dialStream(base string) (*streamClient, error) {
	addr := strings.TrimPrefix(base, "http://")
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	sc := &streamClient{}
	if sc.c, err = wire.Handshake(countConn{Conn: raw, n: &sc.wire}, addr, "e2e"); err != nil {
		raw.Close()
		return nil, err
	}
	return sc, nil
}

func (c *streamClient) bytes() int64 { return c.wire.Load() }
func (c *streamClient) close()       { c.c.Close() }

func (c *streamClient) do(m *module, sl *spanLog, parent, op int) outcome {
	out := outcome{prog: m.prog, stream: true}
	p := m.prog
	start := time.Now()
	job := sl.begin("client.stream.job", parent, op)
	defer sl.end(job)

	id := sl.begin("wire.upload", job, op)
	_, skipped, err := c.c.UploadModule([]byte(m.src))
	sl.end(id)
	if err != nil {
		out.err = fmt.Errorf("%s: upload: %w", p.name, err)
		return out
	}
	out.uploadSkipped = skipped

	c.seq++
	id = sl.begin("wire.launch", job, op)
	defer sl.end(id)
	launched := time.Now()
	if err := c.c.Launch(wire.LaunchSpec{
		Seq: c.seq, Kernel: p.kernel, Grid: p.grid, Block: p.block,
		Buffers: p.bufs, MaxInstrs: p.budget,
	}); err != nil {
		out.err = fmt.Errorf("%s: launch: %w", p.name, err)
		return out
	}
	for {
		ev, err := c.c.Next()
		if err != nil {
			out.err = fmt.Errorf("%s: stream: %w", p.name, err)
			return out
		}
		switch ev.Type {
		case wire.FReject:
			out.err = fmt.Errorf("%s: rejected (%s): %s", p.name, ev.Reject.Code, ev.Reject.Msg)
			return out
		case wire.FRace:
			if out.ttfr == 0 {
				out.ttfr = time.Since(launched).Seconds()
			}
		case wire.FSummary:
			out.wall = time.Since(start).Seconds()
			s := ev.Summary
			if s.Status != server.StatusDone {
				out.err = fmt.Errorf("%s: job %s: %s", p.name, s.Status, s.Error)
				return out
			}
			out.cacheHit, out.detectMS = s.CacheHit, float64(s.DetectUS)/1e3
			out.err = p.check(s.Report())
			return out
		}
	}
}

// backend is a running daemon or fleet on loopback.
type backend struct {
	url     string // what clients talk to
	workers []*server.Server
	coord   *fleet.HTTPCoordinator
	stops   []func() // in start order
}

func (b *backend) stop() {
	for i := len(b.stops) - 1; i >= 0; i-- {
		b.stops[i]()
	}
}

// listen serves h on a loopback port; the returned stop waits for Serve.
func (b *backend) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	b.stops = append(b.stops, func() {
		srv.Close()
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

func (b *backend) worker(opts server.SchedulerOptions) (string, error) {
	// The streaming path's per-key token bucket (100 launches/s) is an
	// operator's abuse limit, below one closed-loop client's rate here.
	opts.Tenants.RatePerSec = -1
	srv := server.New(opts)
	b.workers = append(b.workers, srv)
	b.stops = append(b.stops, srv.Close)
	return b.listen(srv.Handler())
}

// startDaemon is service_zipf's system: one barracudad.
func startDaemon() (*backend, error) {
	b := &backend{}
	var err error
	b.url, err = b.worker(server.SchedulerOptions{Workers: schedWorkers, CacheEntries: cacheEntries, SrcEntries: cacheEntries})
	if err != nil {
		b.stop()
		return nil, err
	}
	return b, nil
}

// startFleet is fleet_2node's system: a coordinator and two workers with
// the daemon's resources split between them, so that what fleet_2node
// loses to service_zipf is the fleet's own cost.
func startFleet() (*backend, error) {
	b := &backend{coord: fleet.NewHTTPCoordinator(fleet.Options{})}
	b.stops = append(b.stops, b.coord.Close)
	fail := func(err error) (*backend, error) {
		b.stop()
		return nil, err
	}
	var err error
	if b.url, err = b.listen(b.coord.Handler()); err != nil {
		return fail(err)
	}
	const nodes = 2
	for i := 0; i < nodes; i++ {
		url, err := b.worker(server.SchedulerOptions{
			Workers: schedWorkers / nodes, CacheEntries: cacheEntries / nodes, SrcEntries: cacheEntries / nodes,
		})
		if err != nil {
			return fail(err)
		}
		link := fleet.StartWorkerLink(b.url, fmt.Sprintf("node-%d", i), url,
			b.workers[i].Scheduler(), 500*time.Millisecond, func(string, ...any) {})
		b.stops = append(b.stops, link.Close)
	}
	for deadline := time.Now().Add(10 * time.Second); len(b.coord.Core().Nodes()) < nodes; {
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("fleet: workers did not join"))
		}
		time.Sleep(time.Millisecond)
	}
	return b, nil
}

// connect opens the workload's clients: against a daemon, client 0 speaks
// JSON and client 1 streams; a coordinator speaks JSON only.
func (b *backend) connect() ([]client, error) {
	cs := []client{newJSONClient(b.url)}
	if b.coord != nil {
		return append(cs, newJSONClient(b.url)), nil
	}
	sc, err := dialStream(b.url)
	if err != nil {
		cs[0].close()
		return nil, err
	}
	return append(cs, sc), nil
}

// closedLoop drives every client, each drawing its next job from its own
// sequence when the previous one's report has arrived, until stop says so,
// and returns the outcomes in completion order per client.
func closedLoop(cs []client, mods []module, seqs []func() int, stop func(done int) bool, sl *spanLog, root int) [][]outcome {
	outs := make([][]outcome, len(cs))
	var wg sync.WaitGroup
	for ci, c := range cs {
		wg.Add(1)
		go func(ci int, c client) {
			defer wg.Done()
			next := seqs[ci]
			for n := 0; !stop(n); n++ {
				outs[ci] = append(outs[ci], c.do(&mods[next()], sl, root, n*len(cs)+ci+1))
			}
		}(ci, c)
	}
	wg.Wait()
	return outs
}

// runService measures service_zipf and fleet_2node: set the system up, warm
// it, then drive the two closed-loop clients for p.seconds.
func runService(w *workloadDef, p params) (*result, error) {
	res := &result{Workload: w.Name}
	start := startDaemon
	if w.Name == "fleet_2node" {
		start = startFleet
	}
	var (
		b      *backend
		cs     []client
		mods   []module
		pool   []*program
		setups []float64
	)
	for i := 0; i < p.setups(); i++ {
		if b != nil {
			closeAll(cs)
			b.stop()
		}
		t := time.Now()
		pool = servicePool()
		mods = buildModules(pool)
		var err error
		if b, err = start(); err != nil {
			return nil, err
		}
		if cs, err = b.connect(); err != nil {
			b.stop()
			return nil, err
		}
		per := p.warmJobs() / len(cs)
		for _, outs := range closedLoop(cs, mods, jobSequences(p.seed+1), func(n int) bool { return n >= per }, nil, 0) {
			for _, o := range outs {
				if o.err != nil {
					closeAll(cs)
					b.stop()
					return nil, fmt.Errorf("warm-up: %w", o.err)
				}
			}
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer b.stop()
	defer closeAll(cs)
	res.Ops = fmt.Sprintf("pool_programs=%d modules=%d clients=%d", len(pool), len(mods), len(cs))
	if p.trace {
		return res, tracedService(res, b, cs, mods, pool, p)
	}

	// peak_rss_mb is the measured system's: the earlier set-ups' daemons are
	// stopped, and what they left behind goes back to the OS first.
	debug.FreeOSMemory()
	resetPeakRSS()
	cal := newCalibrator()
	seqs := jobSequences(p.seed)
	length := min(sliceLength, p.duration())
	var walls, ttfr, rates []float64
	perProg, detect := samples{}, samples{}
	for deadline := time.Now().Add(p.duration()); len(rates) == 0 || time.Now().Before(deadline); {
		runtime.GC()
		cal.probe()
		t := time.Now()
		end := t.Add(length)
		outs := closedLoop(cs, mods, seqs, func(n int) bool { return n > 0 && time.Now().After(end) }, nil, 0)
		secs := time.Since(t).Seconds()
		done := 0
		for _, client := range outs {
			for _, o := range client {
				res.Attempted++
				if o.err != nil {
					res.fail(o.err)
					continue
				}
				done++
				walls = append(walls, o.wall)
				perProg.add(o.prog.name, o.wall)
				detect.add(o.prog.name, o.detectMS/1e3)
				// Against a daemon, time to first race is the stream's promise;
				// a coordinator's clients have only JSON.
				if o.prog.racy && o.ttfr > 0 && (o.stream || b.coord != nil) {
					ttfr = append(ttfr, o.ttfr)
				}
			}
		}
		rates = append(rates, float64(done)/secs)
	}
	res.Ops += fmt.Sprintf(" jobs=%d slices=%d", res.Attempted, len(rates))

	// Every timing below is in calibrated seconds (calib.go); overhead_x is
	// a ratio of two of them and peak_rss_mb is not a timing.
	slow := cal.slowdown()
	res.Calib = cal.summary()
	m := newMetricSet(endToEnd)
	m.set("setup_s", median(setups)/slow, len(setups))
	m.set("sweep_s", sum(perProg.medians())/slow, len(walls))
	m.set("overhead_x", geomean(perProg.ratios(detect)), len(perProg))
	m.set("job_ms_p50", ms(quantile(walls, 0.50))/slow, len(walls))
	m.set("job_ms_p95", ms(quantile(walls, 0.95))/slow, len(walls))
	m.set("jobs_per_s", median(rates)*slow, len(rates))
	m.set("ttfr_ms_p50", ms(median(ttfr))/slow, len(ttfr))
	m.set("peak_rss_mb", peakRSSMiB(), 0)
	res.Metrics = m.vals
	return res, nil
}

func closeAll(cs []client) {
	for _, c := range cs {
		c.close()
	}
}

// tracedService is a service workload's traced pass. It splits p.seconds
// between the closed loop with spans on, the scheduler alone (no HTTP) and
// the library stages over the pool's programs, which is where a cold
// module's time goes.
func tracedService(res *result, b *backend, cs []client, mods []module, pool []*program, p params) error {
	sl := newSpanLog()
	root := sl.begin("run", 0, 0)

	base, err := b.counters()
	if err != nil {
		return err
	}
	before := make([]int64, len(cs))
	for i, c := range cs {
		before[i] = c.bytes()
	}
	deadline := time.Now().Add(p.duration() / 2)
	loop := sl.begin("closed_loop", root, 0)
	outs := closedLoop(cs, mods, jobSequences(p.seed), func(n int) bool { return n > 0 && time.Now().After(deadline) }, sl, loop)
	sl.end(loop)

	m := newMetricSet(perLayer)
	var all, jsonWalls, streamWalls, submits, tax, workerTax, streamTTFR, detect []float64
	var jsonJobs, streamJobs, jsonBytes, streamBytes, skipped, hits float64
	perNode := map[string]float64{}
	for ci, client := range outs {
		for _, o := range client {
			res.Attempted++
			if o.err != nil {
				res.fail(o.err)
				continue
			}
			all = append(all, ms(o.wall))
			tax = append(tax, ms(o.wall)-o.detectMS)
			detect = append(detect, o.detectMS)
			if o.cacheHit {
				hits++
			}
			if o.stream {
				streamWalls = append(streamWalls, ms(o.wall))
				if o.prog.racy && o.ttfr > 0 {
					streamTTFR = append(streamTTFR, ms(o.ttfr))
				}
				if o.uploadSkipped {
					skipped++
				}
			} else {
				jsonWalls = append(jsonWalls, ms(o.wall))
				submits = append(submits, ms(o.submit))
				workerTax = append(workerTax, o.workerTotalMS-o.detectMS)
			}
			if o.node != "" {
				perNode[o.node]++
			}
		}
		sent := float64(cs[ci].bytes() - before[ci])
		if _, ok := cs[ci].(*streamClient); ok {
			streamJobs, streamBytes = streamJobs+float64(len(client)), streamBytes+sent
		} else {
			jsonJobs, jsonBytes = jsonJobs+float64(len(client)), jsonBytes+sent
		}
	}
	res.Ops += fmt.Sprintf(" jobs=%d", len(all))
	m.set("server.submit_ms_p50", median(submits), len(submits))
	m.set("server.json.job_ms_p50", median(jsonWalls), len(jsonWalls))
	m.set("server.json.bytes_per_job", ratio(jsonBytes, jsonJobs), int(jsonJobs))
	m.set("server.job_ms_p99", quantile(all, 0.99), len(all))
	m.set("server.detect_ms_mean", mean(detect), len(detect))
	m.set("wire.job_ms_p50", median(streamWalls), len(streamWalls))
	m.set("wire.ttfr_ms_p50", median(streamTTFR), len(streamTTFR))
	m.set("wire.bytes_per_job", ratio(streamBytes, streamJobs), int(streamJobs))
	m.set("wire.upload_skipped_frac", ratio(skipped, streamJobs), 0)
	after, err := b.counters()
	if err != nil {
		res.fail(err)
	}
	m.set("server.cache_hit_ratio", ratio(after.hits-base.hits, after.hits-base.hits+after.misses-base.misses), 0)
	m.set("server.rejected", after.rejected-base.rejected, 0)
	if b.coord == nil {
		m.set("server.tax_ms_p50", median(tax), len(tax))
	} else {
		// Behind a coordinator the daemon's own share of the tax is what
		// its JobInfo reports; the client-observed tax is the fleet's.
		m.set("server.tax_ms_p50", median(workerTax), len(workerTax))
		m.set("fleet.tax_ms_p50", median(tax), len(tax))
		f, f0 := after.fleet, base.fleet
		m.set("fleet.stream_forwards", float64(f.StreamForwards-f0.StreamForwards), 0)
		m.set("fleet.json_forwards", float64(f.JSONForwards-f0.JSONForwards), 0)
		m.set("fleet.retries", float64(f.Stats.Retries-f0.Stats.Retries), 0)
		m.set("fleet.requeued", float64(f.Stats.Requeued-f0.Stats.Requeued), 0)
		m.set("fleet.warm_hit_ratio", ratio(hits, float64(len(all))), 0)
		m.set("fleet.primary_frac", ratio(float64(f.Stats.PrimaryHits-f0.Stats.PrimaryHits), float64(f.Stats.Dispatched-f0.Stats.Dispatched)), 0)
		lo, hi := float64(len(all)), 0.0
		for _, n := range f.Nodes {
			lo, hi = min(lo, perNode[n.ID]), max(hi, perNode[n.ID])
		}
		m.set("fleet.node_imbalance", ratio(hi-lo, float64(len(all))), 0)
	}

	// The scheduler with no HTTP in front: admission, queue, module cache,
	// detection. One submitter, so it is a latency, not a throughput.
	sched := server.NewScheduler(server.SchedulerOptions{Workers: schedWorkers, CacheEntries: cacheEntries})
	next := jobSequence(p.seed, 0)
	var schedMS []float64
	deadline = time.Now().Add(p.duration() / 4)
	for n := 0; n == 0 || !time.Now().After(deadline); n++ {
		mod := &mods[next()]
		res.Attempted++
		id := sl.begin("server.sched_job", root, n+1)
		job, err := sched.Submit(jobRequest(mod))
		if err == nil {
			<-job.Done()
			if info := job.Info(); info.Status != server.StatusDone {
				err = fmt.Errorf("job %s: %s", info.Status, info.Error)
			}
		}
		d := sl.end(id)
		if err != nil {
			res.fail(fmt.Errorf("%s: scheduler: %w", mod.prog.name, err))
			continue
		}
		schedMS = append(schedMS, ms(d))
	}
	sched.Stop()
	m.set("server.sched_job_ms_p50", median(schedMS), len(schedMS))

	p.seconds /= 4
	ls := tracedPrograms(res, pool, detector.Config{}, p, sl, root)
	sl.end(root)
	libraryLayers(m, ls)
	m.set("trace.attributed_frac", sl.attributedFrac("client.json.job"), 0)
	m.set("trace.spans", float64(len(sl.spans)), 0)
	res.Metrics = m.vals
	res.spans = sl
	return nil
}

// counters snapshots the system's own counters: the workers' module caches
// and admission, and the coordinator's metrics API. Layer metrics are the
// difference of two snapshots, so warm-up traffic is not in them.
type counters struct {
	hits, misses, rejected float64
	fleet                  fleet.FleetMetricsJSON
}

func (b *backend) counters() (counters, error) {
	var c counters
	for _, w := range b.workers {
		st := w.Scheduler().Cache().Stats()
		c.hits, c.misses = c.hits+float64(st.Hits), c.misses+float64(st.Misses)
		c.rejected += float64(w.Scheduler().Metrics().Counters().Rejected)
	}
	if b.coord == nil {
		return c, nil
	}
	resp, err := http.Get(b.url + "/fleet/metrics")
	if err != nil {
		return c, fmt.Errorf("fleet metrics: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&c.fleet); err != nil {
		return c, fmt.Errorf("fleet metrics: %w", err)
	}
	return c, nil
}
