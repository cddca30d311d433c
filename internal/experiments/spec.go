package experiments

import (
	"errors"
	"fmt"

	"webmm/internal/apprt"
	"webmm/internal/machine"
	"webmm/internal/memsys"
	"webmm/internal/workload"
)

// CellSpec is the one input form of a cell: the CLI's -exp cell flags,
// the body of serve's POST /run and the public Study.Cell all describe a
// cell this way, and Runner.Resolve turns it into the Cell the runner
// memoizes and caches.
type CellSpec struct {
	// Platform defaults to "xeon".
	Platform string `json:"platform,omitempty"`
	Alloc    string `json:"alloc,omitempty"`
	// Workload defaults to Rails for a Ruby cell.
	Workload string `json:"workload,omitempty"`
	// Cores must lie in 1..MaxCores of the platform.
	Cores int `json:"cores,omitempty"`
	// Ruby selects the Ruby runtime; RestartEvery is its restart period in
	// the paper's full-scale transactions (0 = never restart), rescaled by
	// Resolve exactly as the Ruby figures rescale theirs, so 500 means the
	// paper's configuration at any scale.
	Ruby         bool `json:"ruby,omitempty"`
	RestartEvery int  `json:"restart_every,omitempty"`
	// Budget caps each stream's mapped bytes for the whole run (0 =
	// unlimited); see Cell.Budget.
	Budget uint64 `json:"budget,omitempty"`
	// MemSched names a DRAM scheduling policy (memsys registry); the cell
	// then runs over the banked DRAM model. Empty or "bus" keeps the
	// paper's bus model.
	MemSched string `json:"memsched,omitempty"`
}

// Resolve fills spec's defaults, rescales its Ruby restart period to the
// runner's scale, and checks every name and the core count, so a bad spec
// is an error before any simulation starts rather than a failed cell.
func (r *Runner) Resolve(spec CellSpec) (Cell, error) {
	if spec.Platform == "" {
		spec.Platform = "xeon"
	}
	if spec.Workload == "" && spec.Ruby {
		spec.Workload = workload.Rails().Name
	}
	if spec.MemSched == "bus" {
		spec.MemSched = ""
	}
	if spec.Alloc == "" || spec.Workload == "" {
		return Cell{}, errors.New(`cell needs "alloc" and "workload"`)
	}
	plat, err := machine.PlatformByName(spec.Platform)
	if err != nil {
		return Cell{}, err
	}
	if spec.Cores < 1 || spec.Cores > plat.MaxCores {
		return Cell{}, fmt.Errorf("cores %d out of range 1..%d for %s",
			spec.Cores, plat.MaxCores, plat.Name)
	}
	if _, err := workload.ByName(spec.Workload); err != nil {
		return Cell{}, err
	}
	if _, err := apprt.AllocCodeSize(spec.Alloc); err != nil {
		return Cell{}, err
	}
	if spec.MemSched != "" {
		if _, err := memsys.PolicyByName(memsys.PolicyName(spec.MemSched)); err != nil {
			return Cell{}, err
		}
	}
	restart := 0
	if spec.Ruby {
		restart = r.rubyRestart(spec.RestartEvery)
	}
	return Cell{
		Platform: spec.Platform, Alloc: spec.Alloc, Workload: spec.Workload,
		Cores: spec.Cores, Ruby: spec.Ruby, RestartEvery: restart,
		Budget: spec.Budget, MemSched: spec.MemSched,
	}, nil
}
