package server

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"barracuda/internal/core"
	"barracuda/internal/detector"
	"barracuda/internal/logging"
	"barracuda/internal/wire"
)

// TestDurationsAreWholeMicroseconds: a run of 1 001 µs reads DetectUS 1001
// on the wire and detect_ms 1.001 in JSON. The summary used to be unpicked
// from the JSON result, and uint64(1.001*1000) is 1000: the round trip
// through float lost a microsecond for 741 of the first 100 000 values.
func TestDurationsAreWholeMicroseconds(t *testing.T) {
	sum := summaryOf("k", &detector.Result{Report: &core.Report{}, Duration: 1001 * time.Microsecond})
	if sum.DetectUS != 1001 {
		t.Fatalf("DetectUS = %d, want 1001", sum.DetectUS)
	}
	sum.Status = StatusDone
	res := resultFromSummary(sum)
	if res.DetectMS != 1.001 {
		t.Fatalf("DetectMS = %v, want 1.001", res.DetectMS)
	}
	if b, _ := json.Marshal(res); !strings.Contains(string(b), `"detect_ms":1.001,`) {
		t.Fatalf("JSON result %s, want detect_ms 1.001", b)
	}

	// The envelope's two durations are kept as the frame has them, and
	// JSON reads them from there.
	j := &Job{done: make(chan struct{}), submitted: time.Now().Add(-3003 * time.Microsecond)}
	j.sum.QueueWaitUS = 1001
	j.finish(StatusDone, "", sum, nil)
	info := j.Info()
	if j.sum.QueueWaitUS != 1001 || info.QueueWaitMS != 1.001 {
		t.Errorf("queue wait: %d µs on the wire, %v ms in JSON, want 1001 and 1.001", j.sum.QueueWaitUS, info.QueueWaitMS)
	}
	if float64(j.sum.TotalUS)/1000 != info.TotalMS || j.sum.TotalUS < 3003 {
		t.Errorf("total: %d µs on the wire, %v ms in JSON, want the same reading", j.sum.TotalUS, info.TotalMS)
	}
}

// TestWorkerAndFleetResultsShareOneBuilder: what a coordinator rebuilds
// from the SUMMARY frame is the worker's own JSON result with the four
// fields only the worker holds — records, ptvc_formats, and all of shadow
// and filter but the counters the frame carries — left out, and nothing
// else different.
func TestWorkerAndFleetResultsShareOneBuilder(t *testing.T) {
	sched := NewScheduler(SchedulerOptions{Workers: 1})
	defer sched.Stop()
	job, err := sched.Submit(JobRequest{PTX: loopReadSrc, Kernel: "k", Grid: 2, Block: 64, Buffers: []int{512, 512},
		Config: detector.Config{ProducerFilter: true}})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	worker := job.Info()
	if worker.Status != StatusDone {
		t.Fatalf("job: %s (%s)", worker.Status, worker.Error)
	}
	fleet := JobInfoFromSummary(job.ID, job.sum)
	if fleet.QueueWaitMS != worker.QueueWaitMS || fleet.TotalMS != worker.TotalMS || fleet.CacheHit != worker.CacheHit {
		t.Errorf("envelopes differ: fleet %+v, worker %+v", fleet, worker)
	}

	w, f := *worker.Result, *fleet.Result
	if w.Records == 0 || len(w.Formats) == 0 || w.Shadow.GlobalPages == 0 || w.Filter.Probes == 0 {
		t.Fatalf("the worker's result lacks an extra: %+v", w)
	}
	if f.Records != 0 || f.Formats != nil || f.Shadow.GlobalPages != 0 || f.Filter.Probes != 0 {
		t.Errorf("the fleet's result carries a worker-only field: %+v", f)
	}
	if f.Shadow.PeakResidentBytes != w.Shadow.PeakResidentBytes || f.Filter.Suppressed != w.Filter.Suppressed || f.Filter.Flushes != w.Filter.Flushes {
		t.Errorf("the counters the frame carries differ: fleet %+v %+v, worker %+v %+v", f.Shadow, f.Filter, w.Shadow, w.Filter)
	}
	w.Records, w.Formats, w.Shadow, w.Filter = 0, nil, nil, nil
	f.Shadow, f.Filter = nil, nil
	wb, _ := json.Marshal(w)
	fb, _ := json.Marshal(f)
	if string(wb) != string(fb) {
		t.Errorf("beyond the four extras the results differ:\nworker %s\nfleet  %s", wb, fb)
	}
}

// TestCoreReportInvertsEveryKindAndSpace: every race kind and memory
// space the detector can name — each value whose String is not "?" —
// survives resultFromSummary → CoreReport, so the JSON result cannot name
// a kind its inverse does not know.
func TestCoreReportInvertsEveryKindAndSpace(t *testing.T) {
	sum := wire.Summary{Status: StatusDone, RecordsSeen: 9}
	for k := core.RaceKind(0); k.String() != "?"; k++ {
		for s := logging.SpaceID(0); s.String() != "?"; s++ {
			sum.Races = append(sum.Races, core.Race{
				Kind: k, Space: s, Block: int32(s) - 1, Addr: uint64(0x10000 + 16*len(sum.Races)), Count: 2,
				Prev: core.Access{TID: 1, PC: 7, Write: true}, Cur: core.Access{TID: 40, PC: uint32(8 + k), Atomic: true},
			})
		}
	}
	if len(sum.Races) < 9 {
		t.Fatalf("%d kind × space pairs, want at least 3 × 3", len(sum.Races))
	}
	rep, err := resultFromSummary(sum).CoreReport()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.CanonicalDigest(), sum.Report().CanonicalDigest(); got != want {
		t.Errorf("round trip through JSON moved the report:\n--- summary ---\n%s--- CoreReport ---\n%s", want, got)
	}
	for i := range sum.Races {
		if rep.Races[i] != sum.Races[i] {
			t.Errorf("race %d: %+v back as %+v", i, sum.Races[i], rep.Races[i])
		}
	}
}
