// Package interval implements the classic pipeline stall accounting
// ("interval analysis") the paper contrasts with critical-path analysis in
// Section 2.3. Every commit-idle cycle is attributed to whatever is
// blocking the oldest in-flight instruction at that moment, producing a CPI
// stack. Unlike the DEG's critical path, this per-cycle accounting cannot
// tell whether an overlapped event actually mattered for the runtime — the
// limitation the paper's approach removes — which makes it a useful
// comparison point for bottleneck reports.
package interval

import (
	"fmt"
	"sort"
	"strings"

	"archexplorer/internal/isa"
	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
)

// Cause classifies why a cycle made no commit progress.
type Cause uint8

const (
	CauseBase     Cause = iota // cycles with commit progress
	CauseFrontend              // no instruction in flight (fetch-bound)
	CauseBranch                // head waiting on a misprediction refill
	CauseICache                // head waiting on an instruction fetch
	CauseRename                // head stalled at rename (back-end structure full)
	CauseIssue                 // head dispatched, waiting to issue (deps/FUs)
	CauseMemory                // head executing a memory access
	CauseExec                  // head executing a non-memory operation
	CauseCommit                // head finished, waiting for commit bandwidth
	numCauses
)

// NumCauses is the number of stall classes.
const NumCauses = int(numCauses)

var causeNames = [...]string{
	CauseBase:     "Base",
	CauseFrontend: "Frontend",
	CauseBranch:   "Branch",
	CauseICache:   "ICache",
	CauseRename:   "Rename",
	CauseIssue:    "Issue",
	CauseMemory:   "Memory",
	CauseExec:     "Exec",
	CauseCommit:   "Commit",
}

func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return fmt.Sprintf("Cause(%d)", uint8(c))
}

// Stack is a CPI stack: cycles attributed to each cause, plus the rename
// stall share per back-end resource (the paper's Figure 3 "necessity").
type Stack struct {
	Cycles       int64
	Instructions int
	ByCause      [NumCauses]int64
	RenameByRes  [uarch.NumResources]int64
}

// CPI returns cycles per instruction.
func (s *Stack) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

// Share returns the fraction of all cycles attributed to a cause.
func (s *Stack) Share(c Cause) float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.ByCause[c]) / float64(s.Cycles)
}

// Analyze builds the CPI stack from a pipeline trace.
func Analyze(tr *pipetrace.Trace) (*Stack, error) {
	n := len(tr.Records)
	if n == 0 {
		return nil, fmt.Errorf("interval: empty trace")
	}
	st := &Stack{Cycles: tr.Cycles, Instructions: n}

	// commitsAt[c] counts commits in cycle c (sparse).
	commitsAt := make(map[int64]int, n)
	for i := range tr.Records {
		commitsAt[tr.Records[i].Stamp[pipetrace.SC]]++
	}

	// For every cycle, the oldest uncommitted instruction is the first
	// record whose commit stamp is >= the cycle (commits are in order).
	// Walk cycles with a pointer instead of searching.
	oldest := 0
	for c := int64(0); c < tr.Cycles; c++ {
		if commitsAt[c] > 0 {
			st.ByCause[CauseBase]++
			continue
		}
		for oldest < n && tr.Records[oldest].Stamp[pipetrace.SC] < c {
			oldest++
		}
		if oldest >= n {
			st.ByCause[CauseBase]++ // tail drain
			continue
		}
		st.ByCause[classify(tr, oldest, c)]++
	}

	// Rename-stall shares per resource (delayed-instruction counting, the
	// Section 2.2 necessity metric).
	for i := range tr.Records {
		for _, rd := range tr.Records[i].ResourceDeps() {
			st.RenameByRes[rd.Resource]++
		}
	}
	return st, nil
}

// classify decides what the oldest in-flight instruction was doing at
// cycle c.
func classify(tr *pipetrace.Trace, idx int, c int64) Cause {
	rec := &tr.Records[idx]
	switch {
	case c < rec.Stamp[pipetrace.SF1]:
		// Not yet fetched: the front end is refilling.
		if rec.MispredictFrom >= 0 {
			return CauseBranch
		}
		return CauseFrontend
	case c < rec.Stamp[pipetrace.SF2]:
		if rec.ICacheLat > 2 {
			return CauseICache
		}
		return CauseFrontend
	case c < rec.Stamp[pipetrace.SR]:
		if len(rec.ResourceDeps()) > 0 {
			return CauseRename
		}
		return CauseFrontend
	case c < rec.Stamp[pipetrace.SI]:
		return CauseIssue
	case c < rec.Stamp[pipetrace.SP]:
		if rec.Class.IsMem() || rec.Class == isa.OpLoad {
			return CauseMemory
		}
		return CauseExec
	default:
		return CauseCommit
	}
}

// TopRenameResources ranks back-end resources by rename-stall counts.
func (s *Stack) TopRenameResources() []uarch.Resource {
	var out []uarch.Resource
	for _, r := range uarch.Resources() {
		if s.RenameByRes[r] > 0 {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return s.RenameByRes[out[i]] > s.RenameByRes[out[j]]
	})
	return out
}

// String renders the CPI stack.
func (s *Stack) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CPI stack (%d instructions, %d cycles, CPI %.3f)\n",
		s.Instructions, s.Cycles, s.CPI())
	for c := Cause(0); c < numCauses; c++ {
		if s.ByCause[c] == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-9s %6.2f%%  (%d cycles)\n", c, 100*s.Share(c), s.ByCause[c])
	}
	if top := s.TopRenameResources(); len(top) > 0 {
		b.WriteString("  rename stalls by resource:")
		for _, r := range top {
			fmt.Fprintf(&b, " %s=%d", r, s.RenameByRes[r])
		}
		b.WriteString("\n")
	}
	return b.String()
}
