package server

import (
	"fmt"

	"barracuda/internal/detector"
)

// RepairRequest asks for verified repair synthesis (POST /v1/repair):
// static race candidates, synthesized patches, and a full dynamic
// re-detection verdict per patch. Exactly one of PTX or Bench selects
// the module. The launch shape controls the verification runs; like
// /v1/analyze, the result is memoized on the module-cache entry, so a
// warm repeat is a pure lookup. The handler submits it as a kind "repair"
// job and waits (Server.handleRepair).
type RepairRequest struct {
	PTX     string `json:"ptx,omitempty"`
	Bench   string `json:"bench,omitempty"`
	Kernel  string `json:"kernel,omitempty"` // default: the module's first kernel
	Grid    int    `json:"grid,omitempty"`
	Block   int    `json:"block,omitempty"`
	Buffers []int  `json:"buffers,omitempty"`
	// MaxInstrs bounds each verification launch (0 = server default);
	// always enforced so a deadlocking patch cannot pin a worker.
	MaxInstrs uint64 `json:"max_instrs,omitempty"`
	// MaxCandidates / MaxPatches bound the search (0 = defaults).
	MaxCandidates int `json:"max_candidates,omitempty"`
	MaxPatches    int `json:"max_patches,omitempty"`
}

// Validate checks the payload shape; the server maps errors to 400.
func (r *RepairRequest) Validate(maxBufferBytes int64) error {
	if err := checkModule("repair", r.PTX, r.Bench); err != nil {
		return err
	}
	if err := checkLaunch("repair", r.Grid, r.Block, 0, r.Buffers, maxBufferBytes); err != nil {
		return err
	}
	if r.MaxCandidates < 0 {
		return fmt.Errorf("repair: field \"max_candidates\": must be >= 0, got %d", r.MaxCandidates)
	}
	if r.MaxPatches < 0 {
		return fmt.Errorf("repair: field \"max_patches\": must be >= 0, got %d", r.MaxPatches)
	}
	return nil
}

// jobRequest is the job a repair runs as; a bench stands for its source only.
func (r RepairRequest) jobRequest() JobRequest {
	return JobRequest{
		PTX:       moduleSource(r.PTX, r.Bench),
		Kernel:    r.Kernel,
		Grid:      r.Grid,
		Block:     r.Block,
		Buffers:   r.Buffers,
		MaxInstrs: r.MaxInstrs,
		Kind:      KindRepair,
	}
}

// RepairResponse wraps the repair report with cache provenance: whether
// it was recalled from the module-cache entry's memo.
type RepairResponse struct {
	CacheHit bool                   `json:"cache_hit"`
	Report   *detector.RepairReport `json:"report"`
}

// repairSig is the memo key for one repair parameterization on a cache
// entry (the entry itself already pins the source).
func repairSig(kernel string, opt detector.RepairOptions) string {
	return fmt.Sprintf("%s|%d|%d|%v|%d|%d|%d|%d",
		kernel, opt.Grid, opt.Block, opt.Buffers, opt.MaxInstrs,
		opt.WarpSize, opt.MaxCandidates, opt.MaxPatchesPerCandidate)
}

// repairOnLease runs (or recalls) a repair on a leased cache entry. The
// lease holds the entry mutex, so memo reads and writes are race-free
// and two concurrent identical requests compute once. The verification
// launches open their own throwaway sessions (each patched module must be
// instrumented and loaded from scratch).
func repairOnLease(lease *Lease, kernel string, opt detector.RepairOptions) (rep *detector.RepairReport, memoHit bool, err error) {
	e := lease.e
	sig := repairSig(kernel, opt)
	if rep, ok := e.repairs[sig]; ok {
		return rep, true, nil
	}
	rep, err = detector.Repair(lease.Session().SrcMod, kernel, lease.Session().Config(), opt)
	if err != nil {
		return nil, false, err
	}
	if e.repairs == nil {
		e.repairs = make(map[string]*detector.RepairReport)
	}
	e.repairs[sig] = rep
	return rep, false, nil
}
