package detector

import (
	"testing"

	"barracuda/internal/gpusim"
)

func capture(t *testing.T, s *Session, kernel string, launch gpusim.LaunchConfig) *Capture {
	t.Helper()
	c, err := s.Capture(kernel, launch)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	return c
}

// TestCaptureReplayMatchesDetect: replaying a captured record stream
// through the transport must yield the same canonical report as the
// live pipeline — capture/replay only decouples production from
// detection, it must not change what is detected.
func TestCaptureReplayMatchesDetect(t *testing.T) {
	cfg := Config{Queues: 1}
	launchFor := func(s *Session) gpusim.LaunchConfig {
		return gpusim.LaunchConfig{Grid: gpusim.D1(2), Block: gpusim.D1(64), Args: []uint64{s.Dev.MustAlloc(4)}}
	}
	live := open(t, racyAllWriteSrc, cfg)
	res := detect(t, live, "k", launchFor(live))

	// A fresh session replays the same launch: same module, same
	// allocation order, so the captured stream matches the live one.
	cs := open(t, racyAllWriteSrc, cfg)
	cap := capture(t, cs, "k", launchFor(cs))
	if len(cap.Records) == 0 {
		t.Fatal("capture collected no records")
	}
	rep, err := Replay(cap, cfg)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rep.SimStats.Records != uint64(len(cap.Records)) || rep.Report.RecordsSeen != res.Report.RecordsSeen {
		t.Errorf("replay pushed %d records and the detector saw %d, captured %d and the live detector saw %d",
			rep.SimStats.Records, rep.Report.RecordsSeen, len(cap.Records), res.Report.RecordsSeen)
	}
	if got, want := rep.Report.CanonicalDigest(), res.Report.CanonicalDigest(); got != want {
		t.Errorf("replay report differs from live detection:\n--- live ---\n%s--- replay ---\n%s", want, got)
	}
}

// TestReplayWidthsAgree: one captured stream replayed at queue widths
// 1, 2, 4 and 8 must produce identical canonical reports. Exercises both
// digest tiers: racyAllWriteSrc is a many-writer global race
// (structural tier), the barrier-free shared kernel an intra-block
// shared race (exact tier).
func TestReplayWidthsAgree(t *testing.T) {
	kernels := []struct {
		name   string
		src    string
		launch func(s *Session) gpusim.LaunchConfig
	}{
		{"global-many-writer", racyAllWriteSrc, func(s *Session) gpusim.LaunchConfig {
			return gpusim.LaunchConfig{Grid: gpusim.D1(8), Block: gpusim.D1(64), Args: []uint64{s.Dev.MustAlloc(4)}}
		}},
		{"shared-no-barrier", sharedBarrierSrc, func(s *Session) gpusim.LaunchConfig {
			return gpusim.LaunchConfig{Grid: gpusim.D1(2), Block: gpusim.D1(64), Args: []uint64{s.Dev.MustAlloc(4 * 64), 0}}
		}},
	}
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			s := open(t, k.src, Config{})
			cap := capture(t, s, "k", k.launch(s))
			var base string
			for _, q := range []int{1, 2, 4, 8} {
				rep, err := Replay(cap, Config{Queues: q})
				if err != nil {
					t.Fatalf("replay queues=%d: %v", q, err)
				}
				if !rep.Report.HasRaces() {
					t.Fatalf("queues=%d: race missed", q)
				}
				dig := rep.Report.CanonicalDigest()
				if q == 1 {
					base = dig
					continue
				}
				if dig != base {
					t.Errorf("report changed at queues=%d:\n--- queues=1 ---\n%s--- queues=%d ---\n%s", q, base, q, dig)
				}
			}
		})
	}
}

// TestReplayRejectsBadConfig: Replay validates like Detect does.
func TestReplayRejectsBadConfig(t *testing.T) {
	s := open(t, racyAllWriteSrc, Config{})
	cap := capture(t, s, "k", gpusim.LaunchConfig{Grid: gpusim.D1(2), Block: gpusim.D1(64), Args: []uint64{s.Dev.MustAlloc(4)}})
	if _, err := Replay(cap, Config{Queues: -1}); err == nil {
		t.Error("negative queue count accepted")
	}
}

// TestCaptureClosedSession: Capture honors the session lifecycle.
func TestCaptureClosedSession(t *testing.T) {
	s := open(t, racyAllWriteSrc, Config{})
	s.Close()
	if _, err := s.Capture("k", gpusim.LaunchConfig{Grid: gpusim.D1(1), Block: gpusim.D1(1)}); err != ErrClosed {
		t.Errorf("Capture on closed session: err = %v, want ErrClosed", err)
	}
}

// TestCaptureIgnoresProducerFilter: a capture is the unfiltered stream
// whatever the session's configuration — attaching a sink does not turn
// the producer filter on, only DetectObserved does — so a replay of it
// judges every record.
func TestCaptureIgnoresProducerFilter(t *testing.T) {
	records := func(filter bool) int {
		s := open(t, loopInvariantReadSrc, Config{ProducerFilter: filter})
		args := []uint64{s.Dev.MustAlloc(4 * 64), s.Dev.MustAlloc(4 * 64)}
		return len(capture(t, s, "k", gpusim.LaunchConfig{Grid: gpusim.D1(1), Block: gpusim.D1(64), Args: args}).Records)
	}
	if plain, filtered := records(false), records(true); plain != filtered || plain == 0 {
		t.Errorf("captured %d records on a ProducerFilter session, %d on a plain one", filtered, plain)
	}
}
