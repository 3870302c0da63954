package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"barracuda/internal/fleet"
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
			strings.HasPrefix(line, "shadow: "), strings.HasPrefix(line, "transport: "):
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

	for _, tc := range []struct {
		file   string
		o      runOpts
		status int
		want   []string // lines the report must hold
	}{
		{"fixable_atomic_increment.ptx", runOpts{grid: 2, block: 64, bufs: []int{1024}}, 2,
			[]string{
				"intra-block race on global memory at 0x10000: read (line 16, thread 32) vs write (line 18, thread 0)",
				"  128 dynamic occurrence(s)",
				"496 same-value intra-warp write(s) filtered",
			}},
		{"divergent_barrier.ptx", runOpts{grid: 1, block: 32, bufs: []int{1024}}, 2,
			[]string{"BARRIER DIVERGENCE: block 0 warp 0 at line 25 (mask 0xffff)", "no races detected"}},
		{"clean_blockreduce.ptx", runOpts{grid: 1, block: 32, bufs: []int{1024, 1024}}, 0,
			[]string{"no races detected"}},
	} {
		o := tc.o
		o.ptxPath, o.queues, o.gran, o.budget, o.verbose = "../../examples/vet/"+tc.file, 1, 1, 1<<24, true

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
			stream    bool
		}{
			{"-server <worker>", workerTS.URL, false},
			{"-server <worker> -stream", workerTS.URL, true},
			{"-server <coordinator>", coordTS.URL, false},
		} {
			var out bytes.Buffer
			status, err := remoteRun(&out, o, road.url, "", road.stream)
			if err != nil || status != tc.status {
				t.Errorf("%s, %s: status %d, err %v, want status %d", tc.file, road.name, status, err, tc.status)
				continue
			}
			got, previews := reportLines(out.String())
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("%s, %s printed\n%s\nthe local run printed\n%s", tc.file, road.name, out.String(), local.String())
			}
			// A stream also prints each race once as it arrives, ahead of the
			// report, which lists it again with its final count.
			races := 0
			for _, line := range want {
				if strings.Contains(line, " race on ") {
					races++
					if road.stream && strings.Count("\n"+strings.Join(previews, "\n")+"\n", "\n"+line+"\n") != 1 {
						t.Errorf("%s, %s: race %q previewed %v, want once", tc.file, road.name, line, previews)
					}
				}
			}
			if road.stream && len(previews) != races || !road.stream && len(previews) != 0 {
				t.Errorf("%s, %s: %d preview line(s) for %d race(s)", tc.file, road.name, len(previews), races)
			}
		}
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
