package memsys

import (
	"fmt"
	"strings"
)

// PolicyName names a registered memory-scheduling policy. Typed like
// apprt's allocator names so call sites cannot silently pass arbitrary
// strings where a registry key is meant.
type PolicyName string

// The registered policies. All four are the classics the MemSchedSim
// lineage compares; each is reduced here to its ordering rule over a bank's
// pending window (see DESIGN.md §10 for the simplifications).
const (
	// PolicyFRFCFS is first-ready, first-come-first-served: row hits
	// first, then oldest. The de-facto hardware baseline.
	PolicyFRFCFS PolicyName = "frfcfs"
	// PolicyATLAS serves the core with the least attained service first
	// (long-term fairness via service accounting).
	PolicyATLAS PolicyName = "atlas"
	// PolicyTCM clusters cores into latency-sensitive vs
	// bandwidth-intensive by demand and prioritizes the former.
	PolicyTCM PolicyName = "tcm"
	// PolicyBLISS blacklists cores that streak (4 consecutive services)
	// and deprioritizes them until a periodic clear.
	PolicyBLISS PolicyName = "bliss"
)

// DefaultPolicy is the policy a DRAM memory system uses when none is named.
const DefaultPolicy = PolicyFRFCFS

// PolicyDesc describes one registered scheduling policy; the table drives
// CLI usage, -list output and the EXPERIMENTS.md policy table, the same way
// the allocator and experiment registries drive theirs.
type PolicyDesc struct {
	Name PolicyName
	// Ref cites the paper the policy comes from.
	Ref string
	// Doc is the one-line ordering rule.
	Doc string
}

// policyRegistry is the authoritative policy table. Order is presentation
// order everywhere (usage, -list, docs, experiment sweeps).
var policyRegistry = []PolicyDesc{
	{
		Name: PolicyFRFCFS,
		Ref:  "Rixner+ ISCA'00",
		Doc:  "first-ready FCFS: open-row hits first, then oldest request",
	},
	{
		Name: PolicyATLAS,
		Ref:  "Kim+ HPCA'10",
		Doc:  "least-attained-service core first; ties broken FR-FCFS",
	},
	{
		Name: PolicyTCM,
		Ref:  "Kim+ MICRO'10",
		Doc:  "latency-sensitive cluster (low demand) over bandwidth-intensive",
	},
	{
		Name: PolicyBLISS,
		Ref:  "Subramanian+ ICCD'14",
		Doc:  "blacklist cores after 4 consecutive services; periodic clear",
	},
}

// Policies returns the registered policy descriptors in presentation order.
// The slice is a copy; callers may not mutate the registry.
func Policies() []PolicyDesc {
	out := make([]PolicyDesc, len(policyRegistry))
	copy(out, policyRegistry)
	return out
}

// PolicyNames returns the registered policy names in presentation order.
func PolicyNames() []PolicyName {
	out := make([]PolicyName, len(policyRegistry))
	for i, d := range policyRegistry {
		out[i] = d.Name
	}
	return out
}

// PolicyByName resolves a policy name, with the valid candidates in the
// error so a typo at any entry point (CLI flag, serve JSON, Study option)
// names its own fix.
func PolicyByName(name PolicyName) (PolicyDesc, error) {
	for _, d := range policyRegistry {
		if d.Name == name {
			return d, nil
		}
	}
	return PolicyDesc{}, fmt.Errorf("memsys: unknown scheduling policy %q (valid: %v)", name, PolicyNames())
}

// UsagePolicies renders the policy table for CLI -h output, one line per
// policy, matching the experiment registry's usage format.
func UsagePolicies() string {
	var b strings.Builder
	for _, d := range policyRegistry {
		fmt.Fprintf(&b, "  %-8s %-22s %s\n", d.Name, d.Ref, d.Doc)
	}
	return b.String()
}

// PoliciesMarkdown renders the policy table as a Markdown table for
// EXPERIMENTS.md; a sync test pins the committed file to this output.
func PoliciesMarkdown() string {
	var b strings.Builder
	b.WriteString("| Policy | Reference | Ordering rule |\n")
	b.WriteString("|--------|-----------|---------------|\n")
	for _, d := range policyRegistry {
		fmt.Fprintf(&b, "| `%s` | %s | %s |\n", d.Name, d.Ref, d.Doc)
	}
	return b.String()
}

// request is one pending transaction in a bank queue.
type request struct {
	row  int64
	seq  uint64
	core int32
	kind Kind
}

// scheduler serves one bank's pending window under a policy. serveWindow
// drains b.pending (arrival-ordered on entry) through d.service in the
// policy's order, updating the scheduler's per-core state as it goes, and
// leaves the queue empty. Implementations must be deterministic: every
// ordering rule ends on the request's unique seq, so the oldest request
// wins every tie.
type scheduler interface {
	serveWindow(d *DRAM, b *bank)
}

// newScheduler builds the named policy's scheduler for nCores cores. The
// caller has already validated the name via PolicyByName.
func newScheduler(name PolicyName, nCores int) scheduler {
	switch name {
	case PolicyFRFCFS:
		return frfcfs{}
	case PolicyATLAS:
		return &atlas{attained: make([]float64, nCores)}
	case PolicyTCM:
		return &tcm{epochReqs: make([]uint64, nCores), rank: make([]float64, nCores)}
	case PolicyBLISS:
		return &bliss{rank: make([]float64, nCores)}
	default:
		panic(fmt.Sprintf("memsys: unregistered policy %q", name))
	}
}

// frfcfs: row hits before row misses, oldest first within each class.
type frfcfs struct{}

// serveWindow serves the window by row groups, which is the FR-FCFS order
// without a per-service scan: first every request on the open row, in
// arrival order; then, until the window is empty, the oldest remaining
// request opens its row and that row's requests follow in arrival order.
// Each pass compacts the requests it skips in place, so the queue stays
// arrival-ordered and a window costs O(W × rows) instead of O(W²).
func (frfcfs) serveWindow(d *DRAM, b *bank) {
	p := b.pending
	row := b.openRow
	elapsed := 0.0
	for len(p) > 0 {
		n := 0
		for _, r := range p {
			if r.row == row {
				elapsed += d.service(b, r, elapsed)
			} else {
				p[n] = r
				n++
			}
		}
		p = p[:n]
		if n > 0 {
			row = p[0].row
		}
	}
	b.pending = p
}

// ranked is a policy that sorts cores into classes before row state:
// requests of the core with the lowest rank go first, then row hits, then
// the oldest. ranks returns the live per-core ranks, which served (called
// after every service) may change, so a window is re-ranked per service.
type ranked interface {
	ranks() []float64
	served(core int32, units float64)
}

// serveRanked drains a window under a ranked policy: scan for the best
// request by (rank, !rowHit, seq), serve it, and fill its slot with the
// last request. The swap breaks arrival order, which cannot change a pick
// because seq is unique.
func serveRanked(d *DRAM, b *bank, pol ranked) {
	rank := pol.ranks()
	p := b.pending
	elapsed := 0.0
	for len(p) > 0 {
		open := b.openRow
		best := 0
		bestRank, bestHit, bestSeq := rank[p[0].core], p[0].row == open, p[0].seq
		for i := 1; i < len(p); i++ {
			x := &p[i]
			r := rank[x.core]
			if r > bestRank {
				continue
			}
			hit := x.row == open
			if r == bestRank && (bestHit && !hit || hit == bestHit && x.seq > bestSeq) {
				continue
			}
			best, bestRank, bestHit, bestSeq = i, r, hit, x.seq
		}
		r := p[best]
		units := d.service(b, r, elapsed)
		elapsed += units
		pol.served(r.core, units)
		last := len(p) - 1
		p[best] = p[last]
		p = p[:last]
	}
	b.pending = p
}

// atlas: the core with the least attained service wins; within a core's
// requests, FR-FCFS rules apply. (The real ATLAS ages service over long
// quanta across all controllers; a single controller over one measured run
// reduces that to monotone per-core accounting.)
type atlas struct {
	attained []float64
}

func (a *atlas) serveWindow(d *DRAM, b *bank)     { serveRanked(d, b, a) }
func (a *atlas) ranks() []float64                 { return a.attained }
func (a *atlas) served(core int32, units float64) { a.attained[core] += units }

// tcmEpoch is the service count between TCM re-clusterings.
const tcmEpoch = 256

// tcm: every epoch, cores whose demand exceeded the fair share are marked
// bandwidth-intensive (rank 1); latency-sensitive cores (rank 0) then beat
// them regardless of row state. (The real TCM also shuffles rank among the
// bandwidth cluster to spread slowdown; one rank order per epoch is
// deterministic and keeps the clustering effect, which is what the solver
// can observe.)
type tcm struct {
	epochReqs []uint64
	rank      []float64
	services  uint64
}

func (t *tcm) serveWindow(d *DRAM, b *bank) { serveRanked(d, b, t) }
func (t *tcm) ranks() []float64             { return t.rank }

func (t *tcm) served(core int32, units float64) {
	t.epochReqs[core]++
	t.services++
	if t.services%tcmEpoch != 0 {
		return
	}
	// Re-cluster: above fair share of the epoch's traffic = bandwidth-heavy.
	var total uint64
	active := 0
	for _, n := range t.epochReqs {
		total += n
		if n > 0 {
			active++
		}
	}
	if active == 0 {
		return
	}
	fair := total / uint64(active)
	for c, n := range t.epochReqs {
		t.rank[c] = 0
		if n > fair {
			t.rank[c] = 1
		}
		t.epochReqs[c] = 0
	}
}

// blissStreak is the consecutive-service count that blacklists a core;
// blissClear is the service interval at which the blacklist resets. Both
// are the shape (not the cycle-accurate values) of the BLISS paper.
const (
	blissStreak = 4
	blissClear  = 512
)

// bliss: non-blacklisted cores (rank 0) beat blacklisted ones (rank 1);
// FR-FCFS within each group. A core that gets blissStreak consecutive
// services is blacklisted until the periodic clear.
type bliss struct {
	rank       []float64
	streakCore int32
	streak     int
	services   uint64
}

func (b *bliss) serveWindow(d *DRAM, bk *bank) { serveRanked(d, bk, b) }
func (b *bliss) ranks() []float64              { return b.rank }

func (b *bliss) served(core int32, units float64) {
	if core == b.streakCore {
		b.streak++
		if b.streak >= blissStreak {
			b.rank[core] = 1
		}
	} else {
		b.streakCore, b.streak = core, 1
	}
	b.services++
	if b.services%blissClear == 0 {
		for c := range b.rank {
			b.rank[c] = 0
		}
	}
}
