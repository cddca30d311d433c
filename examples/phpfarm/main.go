// phpfarm reruns the paper's headline experiment in miniature: MediaWiki
// (read-only) on the 8-core Xeon under the three PHP-study allocators — the
// runtime's default, the region-based allocator, and DDmalloc — and prints
// the Figure 5-style relative throughputs together with the Figure 6-style
// CPU-time breakdown.
//
// This is the paper's core observation in one screen: the region allocator's
// near-zero malloc cost does not survive eight cores, because its dead
// objects saturate the front-side bus; defrag-dodging keeps the cheap
// allocation *and* the memory reuse.
//
//	go run ./examples/phpfarm
package main

import (
	"fmt"
	"log"

	"webmm"
)

func main() {
	const scale = 64 // keep the example snappy; shapes survive scaling
	study, err := webmm.NewStudy(webmm.WithScale(scale))
	if err != nil {
		log.Fatal(err)
	}

	const wl = "MediaWiki(ro)"
	fmt.Printf("MediaWiki (read-only), simulated 8-core Xeon, scale 1/%d\n\n", scale)

	table := webmm.NewReportTable("", "allocator", "txns/sec", "vs default",
		"alloc CPU share", "bus util")
	base, err := study.Cell(webmm.CellSpec{Alloc: webmm.AllocDefault, Workload: wl, Cores: 8})
	if err != nil {
		log.Fatal(err)
	}
	for _, alloc := range []webmm.AllocatorName{webmm.AllocDefault, webmm.AllocRegion, webmm.AllocDDmalloc} {
		out, err := study.Cell(webmm.CellSpec{Alloc: alloc, Workload: wl, Cores: 8})
		if err != nil {
			log.Fatal(err)
		}
		res := out.Machine
		mmShare := 0.0
		if total := res.CyclesPerTxn(); total > 0 {
			mmShare = res.ClassCyclesPerTxn(0) / total // class 0 = memory management
		}
		table.Add(string(alloc),
			fmt.Sprintf("%.1f", res.Throughput),
			fmt.Sprintf("%+.1f%%", (res.Throughput/base.Machine.Throughput-1)*100),
			fmt.Sprintf("%.1f%%", mmShare*100),
			fmt.Sprintf("%.1f%%", res.BusUtil*100))
	}
	fmt.Println(table.String())

	fmt.Println("For the full matrix (all workloads, both platforms, every")
	fmt.Println("table and figure of the paper): go run ./cmd/webmm -exp all")
}
