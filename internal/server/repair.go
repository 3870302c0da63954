package server

import (
	"fmt"

	"barracuda/internal/detector"
)

// repairSig is the memo key for one repair parameterization on a cache
// entry (the entry itself already pins the source). A repair job runs the
// detector's default search bounds, so only its launch varies.
func repairSig(kernel string, opt detector.RepairOptions) string {
	return fmt.Sprintf("%s|%d|%d|%v|%d|%d",
		kernel, opt.Grid, opt.Block, opt.Buffers, opt.MaxInstrs, opt.WarpSize)
}

// repairOnLease runs (or recalls) a repair on a leased cache entry. The
// lease holds the entry mutex, so memo reads and writes are race-free
// and two concurrent identical repair jobs compute once. The verification
// launches open their own throwaway sessions (each patched module must be
// instrumented and loaded from scratch).
func repairOnLease(lease *Lease, kernel string, opt detector.RepairOptions) (*detector.RepairReport, error) {
	e := lease.e
	sig := repairSig(kernel, opt)
	if rep, ok := e.repairs[sig]; ok {
		return rep, nil
	}
	rep, err := detector.Repair(lease.Session().SrcMod, kernel, opt)
	if err != nil {
		return nil, err
	}
	if e.repairs == nil {
		e.repairs = make(map[string]*detector.RepairReport)
	}
	e.repairs[sig] = rep
	return rep, nil
}
