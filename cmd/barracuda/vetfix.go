package main

import (
	"fmt"
	"os"

	"barracuda/internal/detector"
	"barracuda/internal/ptx"
)

// vetFixOptions carries the -fix launch knobs from the vet flag set.
type vetFixOptions struct {
	grid, block int
	bufBytes    int
}

// fileRepair is the machine-readable -fix result for one kernel,
// emitted under "repairs" in vet -json output.
type fileRepair struct {
	File string `json:"file"`
	*detector.RepairReport
}

// runVetFix runs the verified repair loop on every kernel of a module.
// It returns the per-kernel reports; launch or baseline failures are
// reported as errors (the caller maps them to exit status 2).
func runVetFix(path string, m *ptx.Module, opt vetFixOptions) ([]fileRepair, error) {
	var out []fileRepair
	for _, k := range m.Kernels {
		buffers := make([]int, len(k.Params))
		for i := range buffers {
			buffers[i] = opt.bufBytes
		}
		rr, err := detector.Repair(m, k.Name, detector.RepairOptions{
			Grid:    opt.grid,
			Block:   opt.block,
			Buffers: buffers,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: kernel %s: %w", path, k.Name, err)
		}
		out = append(out, fileRepair{File: path, RepairReport: rr})
	}
	return out, nil
}

// printVetFix renders one kernel's repair report for humans: each
// reported race with its patch attempts and verdicts, verified diffs in
// full, and a one-line greppable summary.
func printVetFix(r fileRepair) {
	rr := r.RepairReport
	proposals := 0
	for _, c := range rr.Candidates {
		proposals += len(c.Patches)
	}
	for _, c := range rr.Candidates {
		fmt.Printf("%s: kernel %s: candidate %s\n", r.File, rr.Kernel, c.Description)
		if len(c.Patches) == 0 {
			fmt.Printf("  no patch template applies: repair declined\n")
		}
		for _, p := range c.Patches {
			status := "rejected"
			if p.Verdict.Verified {
				status = "VERIFIED"
			}
			fmt.Printf("  patch %s: %s\n    %s: %s\n", p.Kind, p.Note, status, p.Verdict.Reason)
			if p.Verdict.Verified && p.Diff != "" {
				fmt.Println(indent(p.Diff, "    "))
			}
		}
	}
	fmt.Printf("%s: kernel %s: baseline_races=%d candidates=%d proposals=%d verified=%d unrepaired=%d final_races=%d\n",
		r.File, rr.Kernel, rr.BaselineRaces, len(rr.Candidates), proposals,
		rr.Verified, rr.Unrepaired, rr.FinalRaces)
}

func indent(s, prefix string) string {
	out := prefix
	for _, r := range s {
		out += string(r)
		if r == '\n' {
			out += prefix
		}
	}
	// Drop the trailing prefix a final newline leaves behind.
	if len(out) >= len(prefix) && out[len(out)-len(prefix):] == prefix {
		out = out[:len(out)-len(prefix)]
	}
	return out
}

// writePatchedModule writes each kernel's fully patched module next to
// the input when -write is set. Reports are per kernel, so a
// multi-kernel module gets one file per repaired kernel (each is the
// whole module with that kernel's verified patches applied).
func writePatchedModule(path string, repairs []fileRepair) error {
	for _, r := range repairs {
		if r.PatchedPTX == "" {
			continue
		}
		out := path + "." + r.Kernel + ".fixed.ptx"
		if err := os.WriteFile(out, []byte(r.PatchedPTX), 0o644); err != nil {
			return err
		}
		fmt.Printf("%s: wrote verified fix to %s\n", path, out)
	}
	return nil
}
