package detector

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"barracuda/internal/gpusim"
)

func TestConfigValidateRejectsNegatives(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string // substring of the error
	}{
		{Config{Queues: -1}, "Queues"},
		{Config{QueueCap: -4096}, "QueueCap"},
		{Config{Granularity: -4}, "Granularity"},
		{Config{MaxRaces: -1}, "MaxRaces"},
		// Far above the bounds: each of these sizes an allocation.
		{Config{Queues: BoundQueues + 1}, "Queues"},
		{Config{QueueCap: 1 << 50}, "QueueCap"},
		{Config{Granularity: 1 << 40}, "Granularity"},
		{Config{MaxRaces: 1 << 50}, "MaxRaces"},
		// Each inside its own bound, 2.19 GiB of ring between them.
		{Config{Queues: BoundQueues, QueueCap: BoundQueueCap}, "Queues×QueueCap"},
		{Config{Queues: BoundQueues, QueueCap: BoundRingRecords/BoundQueues + 1}, "Queues×QueueCap"},
		// In range but not a power of two: cells would not tile the 64 KiB
		// shadow page, and the page's last bytes indexed past its cells.
		{Config{Granularity: 3}, "Granularity"},
		{Config{Granularity: 48}, "Granularity"},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c.cfg)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%+v) = %q, want mention of %s", c.cfg, err, c.want)
		}
		// Open must surface the same error instead of clamping.
		if _, oerr := OpenPTX(racyAllWriteSrc, c.cfg); oerr == nil || oerr.Error() != err.Error() {
			t.Errorf("OpenPTX(%+v) err = %v, want %v", c.cfg, oerr, err)
		}
	}
}

func TestConfigValidateAcceptsZeroAndPositive(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{Queues: 4, QueueCap: 128, Granularity: 4, MaxRaces: 10},
		// The ring's bound is on the product: each knob at its own bound
		// with the other as large as that leaves it.
		{Queues: BoundQueues, QueueCap: BoundRingRecords / BoundQueues, Granularity: BoundGranularity, MaxRaces: BoundMaxRaces},
		{Queues: BoundRingRecords / BoundQueueCap, QueueCap: BoundQueueCap, Granularity: BoundGranularity, MaxRaces: BoundMaxRaces},
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", cfg, err)
		}
	}
	// A cell as large as the bound allows still detects: one cell per
	// shadow page, every write of the block lands in it.
	s := open(t, racyAllWriteSrc, Config{Granularity: BoundGranularity})
	out := s.Dev.MustAlloc(4)
	res := detect(t, s, "k", gpusim.LaunchConfig{Grid: gpusim.D1(2), Block: gpusim.D1(64), Args: []uint64{out}})
	if !res.Report.HasRaces() {
		t.Error("no race reported at the largest granularity")
	}
}

// TestConfigJSONFieldNames pins the job API's config object: Config
// marshals to exactly the names server.ConfigJSON used before it was
// folded into this struct, every one omitempty, and round-trips.
func TestConfigJSONFieldNames(t *testing.T) {
	if b, err := json.Marshal(Config{}); err != nil || string(b) != "{}" {
		t.Fatalf("zero Config marshals to %s (%v), want {}: a field lost omitempty", b, err)
	}
	full := Config{
		Queues: 4, QueueCap: 1024, Granularity: 4, MaxRaces: 512,
		FullVC: true, NoPrune: true, StaticPrune: true, NoSameValueFilter: true,
		PerCellShadow: true, Ownership: true, ShadowCapBytes: 1 << 30, ProducerFilter: true,
	}
	const want = `{"queues":4,"queue_cap":1024,"granularity":4,"max_races":512,` +
		`"full_vc":true,"no_prune":true,"static_prune":true,"no_same_value_filter":true,` +
		`"per_cell_shadow":true,"ownership":true,"shadow_cap_bytes":1073741824,"producer_filter":true}`
	b, err := json.Marshal(full)
	if err != nil || string(b) != want {
		t.Fatalf("Config marshals to\n %s (%v)\nwant\n %s", b, err, want)
	}
	if n := reflect.TypeOf(full).NumField(); n != 12 {
		t.Fatalf("Config has %d fields, the pinned JSON covers 12: extend this test with the new field", n)
	}
	var back Config
	if err := json.Unmarshal(b, &back); err != nil || back != full {
		t.Fatalf("round trip: got %+v (%v), want %+v", back, err, full)
	}
}

// TestSessionReuseIdenticalReports exercises the documented reuse
// contract the server's module cache depends on: two back-to-back
// Detect calls on one session — with buffers re-zeroed in between —
// produce identical race reports.
func TestSessionReuseIdenticalReports(t *testing.T) {
	s := open(t, racyAllWriteSrc, Config{})
	out := s.Dev.MustAlloc(4)
	launch := gpusim.LaunchConfig{Grid: gpusim.D1(2), Block: gpusim.D1(64), Args: []uint64{out}}

	res1 := detect(t, s, "k", launch)
	if err := s.Dev.Memset(out, 0, 4); err != nil {
		t.Fatal(err)
	}
	res2 := detect(t, s, "k", launch)

	if !res1.Report.HasRaces() {
		t.Fatal("first run found no races")
	}
	if !reflect.DeepEqual(res1.Report.Races, res2.Report.Races) {
		t.Errorf("reports differ across session reuse:\nfirst:  %v\nsecond: %v",
			res1.Report.Races, res2.Report.Races)
	}
	if len(res1.Report.Divergences) != len(res2.Report.Divergences) {
		t.Errorf("divergence counts differ: %d vs %d",
			len(res1.Report.Divergences), len(res2.Report.Divergences))
	}
}

func TestSessionCloseIsTerminalAndIdempotent(t *testing.T) {
	s := open(t, racyAllWriteSrc, Config{})
	out := s.Dev.MustAlloc(4)
	launch := gpusim.LaunchConfig{Grid: gpusim.D1(1), Block: gpusim.D1(32), Args: []uint64{out}}
	if _, err := s.Detect("k", launch); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := s.Detect("k", launch); !errors.Is(err, ErrClosed) {
		t.Errorf("Detect after Close = %v, want ErrClosed", err)
	}
	if _, _, err := s.RunNative("k", launch); !errors.Is(err, ErrClosed) {
		t.Errorf("RunNative after Close = %v, want ErrClosed", err)
	}
}
