// Command palladium-bench regenerates the paper's evaluation tables
// and figures on the simulated Palladium system and prints them in the
// paper's layout. Every number it prints is simulated cycles (or
// microseconds and requests per second at the simulated clock), so two
// runs print the same bytes. Wall-clock performance of the simulator
// is measured by the benchmark in bench/ (see bench/README.md).
//
// Usage:
//
//	palladium-bench                 # everything
//	palladium-bench -table 1       # Table 1 only (1, 2 or 3)
//	palladium-bench -table 3 -requests 50   # Table 3 with 50 requests per cell
//	palladium-bench -figure 7      # Figure 7 only
//	palladium-bench -micro         # Section 5.1 micro-measurements
//	palladium-bench -ablation      # design-choice ablations
//	palladium-bench -table 3 -cpuprofile cpu.prof -memprofile mem.prof
//	                               # profile any run (std runtime/pprof files;
//	                               # inspect with `go tool pprof`)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/experiments"
)

func main() {
	table := flag.Int("table", 0, "regenerate only this table (1, 2 or 3)")
	figure := flag.Int("figure", 0, "regenerate only this figure (7)")
	micro := flag.Bool("micro", false, "regenerate only the section 5.1 micro-measurements")
	ablation := flag.Bool("ablation", false, "regenerate only the design ablations")
	requests := flag.Int("requests", 100, "requests per Table 3 cell")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected runs to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after the selected runs) to this file")
	flag.Parse()

	all := *table == 0 && *figure == 0 && !*micro && !*ablation
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "palladium-bench:", err)
		os.Exit(1)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fail(err)
		}
		defer func() {
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "palladium-bench:", err)
			}
			f.Close()
		}()
	}

	if all || *table == 1 {
		rows, err := experiments.Table1()
		if err != nil {
			fail(err)
		}
		experiments.RenderTable1(os.Stdout, rows)
		fmt.Println()
	}
	if all || *table == 2 {
		rows, err := experiments.Table2([]int{32, 64, 128, 256})
		if err != nil {
			fail(err)
		}
		experiments.RenderTable2(os.Stdout, rows)
		fmt.Println()
	}
	if all || *table == 3 {
		rows, err := experiments.Table3(experiments.Table3Sizes(), *requests)
		if err != nil {
			fail(err)
		}
		experiments.RenderTable3(os.Stdout, rows)
		fmt.Println()
	}
	if all || *figure == 7 {
		pts, err := experiments.Figure7(4)
		if err != nil {
			fail(err)
		}
		experiments.RenderFigure7(os.Stdout, pts)
		fmt.Println()
	}
	if all || *micro {
		m, err := experiments.MeasureMicro()
		if err != nil {
			fail(err)
		}
		experiments.RenderMicro(os.Stdout, m)
		fmt.Println()
	}
	if all || *ablation {
		sfiPts, err := experiments.AblationSFI()
		if err != nil {
			fail(err)
		}
		cc, err := experiments.AblationCrossings()
		if err != nil {
			fail(err)
		}
		experiments.RenderAblations(os.Stdout, sfiPts, cc)
	}
}
