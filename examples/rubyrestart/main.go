// rubyrestart reruns the paper's §4.4 Ruby on Rails study in miniature:
// Rails processes that never bulk-free, compared across allocators, plus
// the Figure 12 restart-period trade-off — restarting a process pays an
// interpreter-boot cost but resets the heap fragmentation that accumulates
// because Ruby has no freeAll.
//
//	go run ./examples/rubyrestart
package main

import (
	"fmt"
	"log"

	"webmm"
)

func main() {
	const scale = 64
	study, err := webmm.NewStudy(webmm.WithScale(scale))
	if err != nil {
		log.Fatal(err)
	}
	rails := func(alloc webmm.AllocatorName, restartEvery int) webmm.MachineResult {
		out, err := study.Cell(webmm.CellSpec{
			Alloc: alloc, Cores: 8, Ruby: true, RestartEvery: restartEvery,
		})
		if err != nil {
			log.Fatal(err)
		}
		return out.Machine
	}

	fmt.Printf("Ruby on Rails, simulated 8-core Xeon, scale 1/%d\n\n", scale)

	// Figure 10 in miniature: allocator comparison with the paper's
	// restart-every-500-transactions configuration (CellSpec takes the
	// paper-scale period; the study rescales it for us).
	const restart = 500
	t := webmm.NewReportTable("Allocator comparison (restart every 500 txns)",
		"allocator", "txns/sec", "vs glibc")
	base := rails(webmm.AllocGlibc, restart)
	for _, alloc := range []webmm.AllocatorName{
		webmm.AllocGlibc, webmm.AllocHoard, webmm.AllocTCMalloc, webmm.AllocDDmalloc,
	} {
		res := rails(alloc, restart)
		t.Add(string(alloc), fmt.Sprintf("%.1f", res.Throughput),
			fmt.Sprintf("%+.1f%%", (res.Throughput/base.Throughput-1)*100))
	}
	fmt.Println(t.String())

	// Figure 12 in miniature: the restart-period sweep for DDmalloc.
	t2 := webmm.NewReportTable("DDmalloc restart-period sweep",
		"restart period", "txns/sec")
	for _, period := range []int{20, 100, 500, 0} {
		res := rails(webmm.AllocDDmalloc, period)
		label := "no restart"
		if period > 0 {
			label = fmt.Sprintf("every %d", period)
		}
		t2.Add(label, fmt.Sprintf("%.1f", res.Throughput))
	}
	fmt.Println(t2.String())
}
