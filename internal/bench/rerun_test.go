package bench

import (
	"errors"
	"sort"
	"strings"
	"testing"
	"time"

	"barracuda/internal/detector"
	"barracuda/internal/gpusim"
)

// TestAbortedSessionThenRerun: a launch at four queues aborted mid-run —
// by the step budget at half of a full run's warp instructions (every
// block is resident and scheduled round-robin, so all four queues already
// hold records), or by a 5 ms deadline — returns its error with the
// detector behind it closed, drained and its shadow released, and the next
// launch on the same Session, its buffers re-zeroed, runs what a fresh run
// runs and reports what it reports, up to the block scope of global
// write–write pairs that four queues leave open (queueProvable). The daemon's counterpart, on its
// one detector, is server's TestAbortedLaunchThenCachedRerun.
func TestAbortedSessionThenRerun(t *testing.T) {
	cfg := detector.Config{Queues: 4}
	for _, name := range []string{"hybridsort", "hotspot", "threadfencereduction"} {
		b := ByName(name)
		fresh, err := Detect(b, cfg)
		if err != nil {
			t.Fatalf("%s: fresh run: %v", name, err)
		}
		want := queueProvable(fresh.Report.CanonicalDigest())
		s, launch, err := session(b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, abort := range []struct {
			what string
			err  error
			set  func(*gpusim.LaunchConfig)
		}{
			{"step budget", gpusim.ErrStepBudget, func(l *gpusim.LaunchConfig) { l.MaxWarpInstrs = fresh.SimStats.WarpInstrs / 2 }},
			{"5 ms deadline", gpusim.ErrDeadline, func(l *gpusim.LaunchConfig) { l.Deadline = time.Now().Add(5 * time.Millisecond) }},
		} {
			l := launch
			abort.set(&l)
			switch _, err := s.Detect("main", l); {
			case err == nil && abort.err == gpusim.ErrDeadline:
				t.Logf("%s finished inside its %s: a fast host, nothing aborted", name, abort.what)
			case !errors.Is(err, abort.err):
				t.Fatalf("%s under a %s: err %v, want %v", name, abort.what, err, abort.err)
			}
			for i, a := range launch.Args {
				if err := s.Dev.Memset(a, 0, b.Buffers()[i]); err != nil {
					t.Fatal(err)
				}
			}
			rerun, err := s.Detect("main", launch)
			if err != nil {
				t.Fatalf("%s: rerun after a %s: %v", name, abort.what, err)
			}
			if got := queueProvable(rerun.Report.CanonicalDigest()); got != want {
				t.Fatalf("%s: rerun after a %s:\n got %s\nwant %s", name, abort.what, got, want)
			}
			if rerun.SimStats != fresh.SimStats {
				t.Fatalf("%s: rerun after a %s ran %+v, a fresh run %+v", name, abort.what, rerun.SimStats, fresh.SimStats)
			}
		}
		s.Close()
	}
}

// queueProvable is bugsuite's provableDigest at more than one queue: a
// global race line loses its intra-/inter-block word and its reader PCs,
// which the queue schedule decides (core.Report.CanonicalDigest), and
// repeats collapse.
func queueProvable(digest string) string {
	lines := strings.Split(strings.TrimSuffix(digest, "\n"), "\n")
	body, last := lines[:len(lines)-1], lines[len(lines)-1]
	seen := make(map[string]bool)
	out := body[:0]
	for _, line := range body {
		for _, scope := range []string{"intra-block", "inter-block"} {
			if rest, ok := strings.CutPrefix(line, "race "+scope+" global "); ok {
				line = "race global " + rest
			}
		}
		if strings.HasPrefix(line, "race global ") {
			open, end := strings.Index(line, "{"), strings.Index(line, "}")
			sides := strings.Split(line[open+1:end], " | ")
			for i, side := range sides {
				if strings.HasSuffix(side, " read") {
					sides[i] = "read"
				}
			}
			sort.Strings(sides)
			line = line[:open+1] + strings.Join(sides, " | ") + line[end:]
			if seen[line] {
				continue
			}
			seen[line] = true
		}
		out = append(out, line)
	}
	sort.Strings(out)
	return strings.Join(append(out, last), "\n") + "\n"
}
