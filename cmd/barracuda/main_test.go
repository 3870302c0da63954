package main

import (
	"bytes"
	"errors"
	"io"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"barracuda/internal/fatbin"
	"barracuda/internal/fleet"
	"barracuda/internal/gpusim"
	"barracuda/internal/server"
)

// reportLines keeps what every road must print alike: the divergence,
// race, count and same-value lines. The header differs by road (each says
// what its road knows of timing and caching), the -v tail is the local
// road's alone, and a stream's preview lines carry a timestamp.
func reportLines(out string) (report, previews []string) {
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		switch {
		case strings.HasSuffix(line, "ms]"):
			previews = append(previews, line[:strings.LastIndex(line, "\t")])
		case strings.HasPrefix(line, "kernel "), strings.HasPrefix(line, "PTVC "), strings.HasPrefix(line, "sim: "),
			strings.HasPrefix(line, "shadow: "), strings.HasPrefix(line, "slabs: "), strings.HasPrefix(line, "transport: "):
		default:
			report = append(report, line)
		}
	}
	return report, previews
}

// TestEveryRoadPrintsTheSameReport runs one racy, one divergent and one
// clean PTX file down all four roads — in this process, against a worker
// by JSON poll and by stream, and against a coordinator, whose job
// envelope (the result under "worker") the CLI used to read as a result-less
// JobInfo and answer "job done without result" — and wants the same report
// lines and the same exit status from each.
func TestEveryRoadPrintsTheSameReport(t *testing.T) {
	worker := server.New(server.SchedulerOptions{Workers: 1})
	workerTS := httptest.NewServer(worker.Handler())
	coord := fleet.NewHTTPCoordinator(fleet.Options{})
	coordTS := httptest.NewServer(coord.Handler())
	link := fleet.StartWorkerLink(coordTS.URL, "w", workerTS.URL, worker.Scheduler(), 100*time.Millisecond, func(string, ...any) {})
	t.Cleanup(func() {
		link.Close()
		coordTS.Close()
		coord.Close()
		workerTS.Close()
		worker.Close()
	})
	for deadline := time.Now().Add(10 * time.Second); len(coord.Core().Nodes()) != 1; {
		if time.Now().After(deadline) {
			t.Fatal("the worker never joined the coordinator")
		}
		time.Sleep(10 * time.Millisecond)
	}

	req := func(grid, block int, bufs ...int) server.JobRequest {
		return server.JobRequest{Grid: grid, Block: block, Buffers: bufs}
	}
	for _, tc := range []struct {
		file   string // under examples/vet; "" when req names a benchmark
		req    server.JobRequest
		status int
		want   []string // lines the report must hold
	}{
		{"fixable_atomic_increment.ptx", req(2, 64, 1024), 2,
			[]string{
				"intra-block race on global memory at 0x10000: read (line 16, thread 32) vs write (line 18, thread 0)",
				"  128 dynamic occurrence(s)",
				"496 same-value intra-warp write(s) filtered",
			}},
		{"divergent_barrier.ptx", req(1, 32, 1024), 2,
			[]string{"BARRIER DIVERGENCE: block 0 warp 0 at line 25 (mask 0xffff)", "no races detected"}},
		// No -grid, no -block: one block of one warp, on every road.
		{"clean_blockreduce.ptx", req(0, 0, 1024, 1024), 0,
			[]string{"no races detected"}},
		// A benchmark launches at its own shape — Table 1's thread count —
		// whichever door it comes in by: the three remote roads sent the
		// CLI's 1×32 and printed "no races detected".
		{"", server.JobRequest{Bench: "hashtable"}, 2,
			[]string{
				"inter-block race on global memory at 0x12000: write (line 219, thread 0) vs write (line 219, thread 32)",
				"inter-block race on global memory at 0x12004: write (line 220, thread 0) vs write (line 220, thread 32)",
				"inter-block race on global memory at 0x12008: write (line 221, thread 0) vs write (line 221, thread 32)",
			}},
	} {
		o := runOpts{req: tc.req, verbose: true}
		if tc.file != "" {
			o.ptxPath = "../../examples/vet/" + tc.file
		} else {
			tc.file = "-bench " + tc.req.Bench
		}
		o.cfg.Queues, o.cfg.Granularity, o.req.MaxInstrs = 1, 1, 1<<24
		if err := o.resolve(); err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}

		var local bytes.Buffer
		status, err := run(&local, o)
		if err != nil || status != tc.status {
			t.Fatalf("%s, local: status %d, err %v, want status %d", tc.file, status, err, tc.status)
		}
		want, _ := reportLines(local.String())
		for _, line := range tc.want {
			if !strings.Contains("\n"+strings.Join(want, "\n")+"\n", "\n"+line+"\n") {
				t.Errorf("%s, local: no line %q in\n%s", tc.file, line, local.String())
			}
		}
		if !strings.Contains(local.String(), "\ntransport: ") {
			t.Errorf("%s, local: -v printed no tail:\n%s", tc.file, local.String())
		}

		for _, road := range []struct {
			name, url string
			run       func(io.Writer, runOpts, string, string) (int, error)
		}{
			{"-server <worker>", workerTS.URL, pollRun},
			{"-server <worker> -stream", workerTS.URL, streamRun},
			{"-server <coordinator>", coordTS.URL, pollRun},
		} {
			stream := strings.HasSuffix(road.name, "-stream")
			var out bytes.Buffer
			status, err := road.run(&out, o, road.url, "")
			if err != nil || status != tc.status {
				t.Errorf("%s, %s: status %d, err %v, want status %d", tc.file, road.name, status, err, tc.status)
				continue
			}
			got, previews := reportLines(out.String())
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("%s, %s printed\n%s\nthe local run printed\n%s", tc.file, road.name, out.String(), local.String())
			}
			if l, r := counts(local.String()), counts(out.String()); l != r {
				t.Errorf("%s, %s ran %q, the local run %q", tc.file, road.name, r, l)
			}
			// A stream also prints each race once as it arrives, ahead of the
			// report, which lists it again with its final count.
			races := 0
			for _, line := range want {
				if strings.Contains(line, " race on ") {
					races++
					if stream && strings.Count("\n"+strings.Join(previews, "\n")+"\n", "\n"+line+"\n") != 1 {
						t.Errorf("%s, %s: race %q previewed %v, want once", tc.file, road.name, line, previews)
					}
				}
			}
			if stream && len(previews) != races || !stream && len(previews) != 0 {
				t.Errorf("%s, %s: %d preview line(s) for %d race(s)", tc.file, road.name, len(previews), races)
			}
		}
	}
}

// counts is the header's "N warp instructions, M records": the launch
// shape, as far as a report shows it.
func counts(out string) string {
	header, _, _ := strings.Cut(out[strings.Index(out, "kernel "):], "\n")
	return strings.Join(strings.SplitN(header, ",", 3)[:2], ",")
}

// TestBenchHonoursEveryFlag: -bench is a module like any other, so the
// flags that shape or replace the launch apply to it — they were dropped
// when a benchmark took a road of its own (bench.Detect).
func TestBenchHonoursEveryFlag(t *testing.T) {
	local := func(o runOpts) (string, error) {
		o.req.Bench = "hashtable"
		if err := o.resolve(); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		_, err := run(&out, o)
		return out.String(), err
	}
	plain, err := local(runOpts{})
	if err != nil || counts(plain) != "kernel main: 444 warp instructions, 16 records" {
		t.Fatalf("-bench hashtable: %v\n%s\nwant 444 warp instructions and 16 records", err, plain)
	}
	narrow, err := local(runOpts{req: server.JobRequest{WarpSize: 5}})
	if err != nil || counts(narrow) == counts(plain) {
		t.Errorf("-warpsize 5: err %v, ran %q like the 32-wide run", err, counts(narrow))
	}
	if _, err := local(runOpts{req: server.JobRequest{MaxInstrs: 10}}); !errors.Is(err, gpusim.ErrStepBudget) {
		t.Errorf("-budget 10: err %v, want the step-budget error", err)
	}
	prof, err := local(runOpts{profile: true})
	if err != nil || !strings.HasPrefix(prof, "memory profile: ") || strings.Contains(prof, "race") {
		t.Errorf("-profile: err %v, printed\n%s\nwant a profile and no race report", err, prof)
	}
}

// TestFatbinIsItsPTX: -fatbin resolves to the request -ptx on the
// extracted text does, so a fat binary takes every road a PTX file takes.
func TestFatbinIsItsPTX(t *testing.T) {
	src, err := os.ReadFile("../../examples/vet/fixable_atomic_increment.ptx")
	if err != nil {
		t.Fatal(err)
	}
	bin, err := fatbin.PackWithSASS(string(src), 35, 52)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "app.fatbin")
	if err := os.WriteFile(path, bin, 0o600); err != nil {
		t.Fatal(err)
	}
	o := runOpts{fatbinPath: path, req: server.JobRequest{Grid: 2, Block: 64, Buffers: []int{1024}}}
	if err := o.resolve(); err != nil || o.req.PTX != string(src) {
		t.Fatalf("resolve: %v; the request carries %d bytes of PTX, the file has %d", err, len(o.req.PTX), len(src))
	}
	var out bytes.Buffer
	if status, err := run(&out, o); err != nil || status != 2 || !strings.Contains(out.String(), "intra-block race on global memory at 0x10000") {
		t.Errorf("status %d, err %v:\n%s", status, err, out.String())
	}
}

// TestMain runs the command itself when the test binary is re-executed
// with BARRACUDA_MAIN set, so a test can check what main prints and the
// status it exits with.
func TestMain(m *testing.M) {
	if os.Getenv("BARRACUDA_MAIN") != "" {
		main()
	}
	os.Exit(m.Run())
}

// TestAblationFlagsRunLocallyOnly: a daemon runs one detector, so the
// flags that configure it are refused with -server, before anything is
// sent, the way -profile is; locally they still apply.
func TestAblationFlagsRunLocallyOnly(t *testing.T) {
	barracuda := func(args ...string) (string, int) {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "BARRACUDA_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatal(err)
		}
		return string(out), cmd.ProcessState.ExitCode()
	}
	// Nothing listens on this URL: a request sent there would fail otherwise.
	for _, flag := range []string{"-fullvc", "-queues=4", "-shadow-cap=1024", "-profile"} {
		out, status := barracuda("-server", "http://127.0.0.1:1", flag, "-bench", "hashtable")
		name := strings.SplitN(flag, "=", 2)[0]
		if status != 1 || !strings.Contains(out, "barracuda: "+name+" runs locally only") {
			t.Errorf("-server %s: exit %d, printed %q; want exit 1 and %q", flag, status, out, name+" runs locally only")
		}
	}
	if out, status := barracuda("-fullvc", "-bench", "hashtable"); status != 2 || !strings.Contains(out, "kernel main: 444 warp instructions, 16 records") {
		t.Errorf("-fullvc locally: exit %d, printed\n%s", status, out)
	}
	// The simulator has no producer filter, so there is no flag for it.
	if out, _ := barracuda("-producer-filter", "-bench", "hashtable"); !strings.Contains(out, "flag provided but not defined: -producer-filter") || strings.Contains(out, "kernel main") {
		t.Errorf("-producer-filter: printed\n%s\nwant the undefined-flag error and no run", out)
	}
}

func TestBufsFlag(t *testing.T) {
	if b, err := parseBufs("1024, 64,4"); err != nil || len(b) != 3 || b[0] != 1024 || b[1] != 64 || b[2] != 4 {
		t.Errorf(`parseBufs("1024, 64,4") = %v, %v`, b, err)
	}
	if b, err := parseBufs(""); err != nil || b != nil {
		t.Errorf(`parseBufs("") = %v, %v, want no buffers`, b, err)
	}
	if _, err := parseBufs("1024,x"); err == nil || !strings.Contains(err.Error(), `"x"`) {
		t.Errorf(`parseBufs("1024,x") err = %v, want it to name the entry`, err)
	}
}
