package staticanalysis

import (
	"fmt"
	"sort"

	"barracuda/internal/kernel"
	"barracuda/internal/ptx"
	"barracuda/internal/trace"
)

// Barrier-interval analysis: partition the instruction stream into
// synchronization intervals and derive ranked static race candidates.
//
// A *phase start* is the kernel entry or the point just after a
// bar.sync. Two instructions are in the same interval when both are
// reachable from some common phase start without crossing a barrier —
// i.e. some thread interleaving lets both execute with no bar.sync
// between them. This is the right notion for race candidates (unlike
// plain path reachability: a store in the then-branch and a load in the
// else-branch have no path between them but conflict across threads).
//
// bar.sync only orders threads *within one block*, so interval
// separation removes shared-space candidates but merely down-ranks
// global-space ones: two global accesses in different intervals still
// race across blocks. membar is not an interval boundary at all — a
// fence orders memory, it does not make threads wait — so fence-induced
// ordering shows up only through the acquire/release classification of
// the sites themselves (trace.Classify), which the ranking consumes.

// Intervals holds barrier-free reachability from every phase start.
type Intervals struct {
	c      *kernel.CFG
	starts []int
	reach  [][]uint64 // per phase start, bitset over instruction indices
}

// ComputeIntervals runs the phase-start reachability analysis.
func ComputeIntervals(c *kernel.CFG) *Intervals {
	iv := &Intervals{c: c}
	if len(c.Instrs) == 0 {
		return iv
	}
	iv.starts = append(iv.starts, 0)
	for i, in := range c.Instrs {
		if in.Op == ptx.OpBar && i+1 < len(c.Instrs) {
			iv.starts = append(iv.starts, i+1)
		}
	}
	words := (len(c.Instrs) + 63) / 64
	for _, s := range iv.starts {
		bits := make([]uint64, words)
		iv.barrierFree(s, bits)
		iv.reach = append(iv.reach, bits)
	}
	return iv
}

// barrierFree marks every instruction reachable from position p without
// executing a bar.sync.
func (iv *Intervals) barrierFree(p int, bits []uint64) {
	c := iv.c
	stack := []int{p}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if q >= len(c.Instrs) {
			continue
		}
		bi := c.BlockOf[q]
		end := c.Blocks[bi].End
		stopped := false
		for k := q; k < end; k++ {
			if bits[k/64]&(1<<uint(k%64)) != 0 {
				// Already walked from here; the suffix is covered.
				stopped = true
				break
			}
			bits[k/64] |= 1 << uint(k%64)
			if c.Instrs[k].Op == ptx.OpBar {
				stopped = true
				break
			}
		}
		if stopped {
			continue
		}
		for _, s := range c.Blocks[bi].Succs {
			if s < len(c.Blocks) {
				t := c.Blocks[s].Start
				if bits[t/64]&(1<<uint(t%64)) == 0 {
					stack = append(stack, t)
				}
			}
		}
	}
}

// Phases returns the number of phase starts (1 + reachable bar count).
func (iv *Intervals) Phases() int { return len(iv.starts) }

// SameInterval reports whether instructions i and j are both reachable
// barrier-free from a common phase start.
func (iv *Intervals) SameInterval(i, j int) bool {
	for _, bits := range iv.reach {
		if bits[i/64]&(1<<uint(i%64)) != 0 && bits[j/64]&(1<<uint(j%64)) != 0 {
			return true
		}
	}
	return false
}

// Candidate is one statically derived may-race: a pair of access sites
// that may touch overlapping memory from distinct threads with no
// ordering between them. A == B is the self-race of one instruction
// executed by many threads.
type Candidate struct {
	Kernel string `json:"kernel"`
	A      int    `json:"a"` // flat instruction index, A <= B
	B      int    `json:"b"`
	LineA  int    `json:"line_a"`
	LineB  int    `json:"line_b"`

	Space    ptx.Space `json:"-"`
	SpaceStr string    `json:"space"`
	WriteA   bool      `json:"write_a"`
	WriteB   bool      `json:"write_b"`
	AtomicA  bool      `json:"atomic_a"`
	AtomicB  bool      `json:"atomic_b"`
	SameAddr bool      `json:"same_addr"` // provably overlapping for distinct threads
	SameIntv bool      `json:"same_interval"`

	Score  int    `json:"score"`
	Reason string `json:"reason"`

	// Dynamic is set by the repair driver when a detector run reported a
	// race on exactly this line pair; it is never set statically.
	Dynamic bool `json:"dynamic"`
}

// Describe renders a one-line human description of the candidate.
func (cd Candidate) Describe() string {
	role := func(w, at bool) string {
		switch {
		case at:
			return "atomic"
		case w:
			return "write"
		default:
			return "read"
		}
	}
	if cd.A == cd.B {
		return fmt.Sprintf("%s %s at line %d vs itself across threads (%s)",
			cd.SpaceStr, role(cd.WriteA, cd.AtomicA), cd.LineA, cd.Reason)
	}
	return fmt.Sprintf("%s %s at line %d vs %s at line %d (%s)",
		cd.SpaceStr, role(cd.WriteA, cd.AtomicA), cd.LineA,
		role(cd.WriteB, cd.AtomicB), cd.LineB, cd.Reason)
}

// aliasVerdict is the pairwise may-overlap result from the affine layer.
type aliasVerdict uint8

const (
	aliasMay  aliasVerdict = iota // cannot decide: keep the candidate
	aliasNo                       // provably disjoint across all thread pairs
	aliasSame                     // provably overlapping for distinct threads
)

// RaceCandidates derives ranked static race candidates for one analyzed
// kernel. The list is sorted by descending score; everything the affine
// layer proves thread-disjoint is pruned.
func RaceCandidates(a *Analysis) []Candidate {
	c := a.CFG
	iv := ComputeIntervals(c)

	type site struct {
		idx    int
		kind   trace.OpKind
		write  bool
		atomic bool
	}
	var sites []site
	for i, k := range a.Class {
		if !k.IsMemory() {
			continue
		}
		in := c.Instrs[i]
		if in.Space != ptx.SpaceGlobal && in.Space != ptx.SpaceShared {
			continue
		}
		sites = append(sites, site{
			idx:    i,
			kind:   k,
			write:  k.Writes(),
			atomic: k == trace.OpAtom || k.IsSync(),
		})
	}

	var out []Candidate
	for x := 0; x < len(sites); x++ {
		for y := x; y < len(sites); y++ {
			sa, sb := sites[x], sites[y]
			ia, ib := c.Instrs[sa.idx], c.Instrs[sb.idx]
			if ia.Space != ib.Space {
				continue
			}
			if !sa.write && !sb.write {
				continue // read-read never races
			}
			if sa.atomic && sb.atomic {
				continue // RMW/sync pairs are ordered by the HB model
			}
			self := sa.idx == sb.idx
			if self && !sa.write {
				continue
			}
			sameIntv := iv.SameInterval(sa.idx, sb.idx)
			if ia.Space == ptx.SpaceShared && !sameIntv {
				continue // bar.sync fully orders shared accesses of a block
			}
			verdict, why := pairAlias(a, sa.idx, sb.idx)
			if verdict == aliasNo {
				continue
			}
			cd := Candidate{
				Kernel: c.Kernel.Name,
				A:      sa.idx, B: sb.idx,
				LineA: ia.Line, LineB: ib.Line,
				Space: ia.Space, SpaceStr: ia.Space.String(),
				WriteA: sa.write, WriteB: sb.write,
				AtomicA: sa.atomic, AtomicB: sb.atomic,
				SameAddr: verdict == aliasSame,
				SameIntv: sameIntv,
			}
			score := 50
			switch {
			case sa.write && sb.write && !sa.atomic && !sb.atomic:
				score += 40
			case sa.atomic || sb.atomic:
				score += 20
			default:
				score += 30
			}
			if cd.SameAddr {
				score += 50
			}
			if cd.Space == ptx.SpaceShared {
				score += 10
			}
			if cd.Space == ptx.SpaceGlobal && !sameIntv {
				score -= 30 // barrier separates within a block; only inter-block
			}
			if sa.kind.IsSync() || sb.kind.IsSync() {
				score -= 40 // fence-adjacent: already creates HB edges
			}
			cd.Score = score
			cd.Reason = candidateReason(cd, why)
			out = append(out, cd)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

func candidateReason(cd Candidate, alias string) string {
	var kind string
	switch {
	case cd.WriteA && cd.WriteB && !cd.AtomicA && !cd.AtomicB:
		kind = "write-write"
	case cd.AtomicA || cd.AtomicB:
		kind = "atomic-plain"
	default:
		kind = "read-write"
	}
	intv := "same interval"
	if !cd.SameIntv {
		intv = "barrier-separated (races only across blocks)"
	}
	return kind + ", " + intv + ", " + alias
}

// pairAlias decides whether sites i and j may touch overlapping bytes
// from *distinct* threads. It is pairwise — a third site with an
// unknown address does not blind it, unlike the pruner's space-level
// blockade — but it reuses the pruner's non-aliasing assumptions:
// distinct pointer params/symbols don't alias, no 32-bit index overflow.
func pairAlias(a *Analysis, i, j int) (aliasVerdict, string) {
	sa, oka := siteDecomp(a, i)
	sb, okb := siteDecomp(a, j)
	if !oka || !okb {
		return aliasMay, "unknown address"
	}
	if !sa.sameBase(&sb) {
		if !symsIntersect(sa.syms(), sb.syms()) {
			return aliasNo, ""
		}
		return aliasMay, "distinct bases may alias"
	}
	// Same uniform base. Slot math below is in bytes relative to it.
	ba, bb := int64(sa.bytes), int64(sb.bytes)
	switch {
	case sa.form == formUniform && sb.form == formUniform:
		if sa.delta < sb.delta+bb && sb.delta < sa.delta+ba {
			return aliasSame, "all threads touch the same address"
		}
		return aliasNo, ""
	case sa.form == formStrided && sb.form == formStrided && sa.stride == sb.stride:
		s := sa.stride
		inSlot := func(si siteInfo, b int64) bool {
			return si.delta >= 0 && si.delta+b <= s
		}
		if inSlot(sa, ba) && inSlot(sb, bb) {
			return aliasNo, "" // each thread stays in its own slot
		}
		return aliasMay, "strided accesses escape their slots"
	case sa.form == formUniform && sb.form == formStrided:
		return uniformVsStrided(sa, sb, ba, bb)
	case sa.form == formStrided && sb.form == formUniform:
		return uniformVsStrided(sb, sa, bb, ba)
	}
	return aliasMay, "address shape not provable"
}

// uniformVsStrided decides overlap between a uniform site u (bytes bu)
// and a strided site s (bytes bs): some thread t >= 0 of the strided
// site may cover the uniform address.
func uniformVsStrided(u, s siteInfo, bu, bs int64) (aliasVerdict, string) {
	if s.stride <= 0 {
		return aliasMay, "address shape not provable"
	}
	// Overlap iff exists t >= 0 with t*stride+delta < u.delta+bu and
	// u.delta < t*stride+delta+bs. Probe the two integer t around the
	// crossing point; threads beyond the launch bound over-approximate.
	base := (u.delta - s.delta) / s.stride
	for _, t := range []int64{base - 1, base, base + 1} {
		if t < 0 {
			continue
		}
		lo := t*s.stride + s.delta
		if lo < u.delta+bu && u.delta < lo+bs {
			return aliasMay, "a thread's slot covers the uniform address"
		}
	}
	return aliasNo, ""
}

// siteDecomp decomposes site i's address with the pruner's affine
// decomposition for its space.
func siteDecomp(a *Analysis, i int) (siteInfo, bool) {
	v := a.Affine.addr[i]
	if !v.affine {
		return siteInfo{}, false
	}
	in := a.CFG.Instrs[i]
	var s siteInfo
	var ok bool
	if in.Space == ptx.SpaceGlobal {
		s, ok = globalSite(v)
	} else {
		s, ok = sharedSite(v)
	}
	if !ok || !s.anchored() || s.form == formOther {
		return siteInfo{}, false
	}
	s.idx = i
	s.bytes = in.AccessBytes()
	return s, true
}

func symsIntersect(a, b []string) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}
