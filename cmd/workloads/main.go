// Command workloads summarises a trace file written by tracegen: VM sizing
// and the CPU-utilisation CDFs of the one loaded platform (no cloud
// comparison). The §4 characterisation over generated traces (Figures 8–13)
// is `reproall -only fig8,fig9,fig10,fig11,fig12,fig13`.
//
// Usage:
//
//	workloads -trace nep.gob.gz
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"edgescope/internal/analysis"
	"edgescope/internal/report"
	"edgescope/internal/vm"
)

func main() {
	tracePath := flag.String("trace", "", "trace file written by tracegen (required)")
	flag.Parse()
	if *tracePath == "" {
		fmt.Fprintln(os.Stderr, "workloads: -trace is required")
		flag.Usage()
		os.Exit(2)
	}

	d, err := vm.Load(*tracePath)
	if err == nil {
		err = renderLoaded(os.Stdout, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "workloads:", err)
		os.Exit(1)
	}
}

// renderLoaded characterises a single loaded trace, stopping at the first
// failed write so a closed pipe or full disk is not reported as success.
func renderLoaded(w io.Writer, d *vm.Dataset) error {
	sz := analysis.VMSizes(d)
	t := &report.Table{
		Title:   fmt.Sprintf("%s trace: VM sizing", d.Platform),
		Headers: []string{"median-vcpus", "median-mem-gb", "vms", "sites"},
	}
	t.AddRow(sz.MedianVCPUs, sz.MedianMemGB, len(d.VMs), len(d.Sites))
	if err := t.Render(w); err != nil {
		return err
	}

	util := analysis.Utilization(d)
	f := &report.Figure{Title: "CPU utilisation", XLabel: "CPU %", YLabel: "CDF"}
	f.AddCDF("mean-cpu", util.MeanCPU)
	f.AddCDF("p95max-cpu", util.P95MaxCPU)
	return f.Render(w)
}
