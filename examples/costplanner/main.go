// Costplanner: "should I move my app from the cloud to the edge?" — the
// §4.5 decision, automated. It generates an edge workload, prices every app
// on NEP and on both virtual cloud baselines, and reports which apps save
// money (and which are the paper's exceptions).
package main

import (
	"fmt"
	"sort"

	"edgescope/internal/billing"
	"edgescope/internal/rng"
	"edgescope/internal/workload"
)

func main() {
	trace, err := workload.GenerateNEP(rng.New(3), workload.Options{Apps: 40, Days: 14})
	if err != nil {
		panic(err)
	}

	usage := billing.NewUsage(trace)
	nep := billing.NEPAppBills(usage)
	cloud := billing.CloudAppBills(usage,
		billing.VCloud1Hardware(), billing.VCloud1Net(), billing.OnDemandBandwidth)
	cloudBy := map[int]billing.AppBill{}
	for _, b := range cloud {
		cloudBy[b.App] = b
	}

	type verdict struct {
		app          int
		nep, cloud   billing.Money
		networkShare float64
	}
	var vs []verdict
	for _, b := range nep {
		if b.Total() == 0 {
			continue
		}
		vs = append(vs, verdict{
			app: b.App, nep: b.Total(), cloud: cloudBy[b.App].Total(),
			networkShare: b.Network / b.Total(),
		})
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i].nep > vs[j].nep })

	cheaper := 0
	fmt.Println("app   NEP/month    vCloud-1/month  ratio   net-share  verdict")
	for i, v := range vs {
		ratio := v.cloud / v.nep
		verdictStr := "stay on cloud"
		if ratio > 1 {
			verdictStr = "move to edge"
			cheaper++
		}
		if i < 12 {
			fmt.Printf("%-4d  %10.0f   %12.0f    %5.2f   %8.0f%%  %s\n",
				v.app, v.nep, v.cloud, ratio, 100*v.networkShare, verdictStr)
		}
	}
	fmt.Printf("\n%d of %d apps are cheaper on the edge (paper: ~45%% mean saving;\n",
		cheaper, len(vs))
	fmt.Println("exceptions are hardware-heavy or high-variance apps).")

	b := billing.Breakdown(usage, 25)
	fmt.Printf("network share of edge bills: mean %.0f%%, max %.0f%% (paper: 76%%/96%%)\n",
		100*b.MeanNetworkShare, 100*b.MaxNetworkShare)
}
