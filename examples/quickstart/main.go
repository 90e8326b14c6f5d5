// Quickstart: build the edge platform, run a small crowd campaign, and
// print the headline latency comparison — the fastest path through the
// edgescope API.
package main

import (
	"fmt"

	"edgescope/internal/crowd"
	"edgescope/internal/netmodel"
	"edgescope/internal/rng"
	"edgescope/internal/scenario"
)

func main() {
	r := rng.New(42)

	// A campaign bundles the NEP edge platform (~520 sites), the AliCloud
	// baseline (8 regions) and a crowd of measurement users.
	campaign := crowd.NewCampaign(r, scenario.CrowdSpec{Users: 50, Repeats: 15})
	fmt.Printf("platform: %d edge sites, %d cloud regions, %d users\n",
		len(campaign.NEP.Sites), len(campaign.Cloud.Sites), len(campaign.Users))

	// Run the ping campaign into its columnar store and aggregate per-user
	// medians.
	obs := crowd.NewObservationStore(campaign, r.Fork("latency"))
	for _, access := range []netmodel.Access{netmodel.WiFi, netmodel.LTE} {
		edge := obs.MedianRTTAcrossUsers(access, crowd.NearestEdge)
		cloud := obs.MedianRTTAcrossUsers(access, crowd.NearestCloud)
		fmt.Printf("%-4s  nearest edge %5.1f ms   nearest cloud %5.1f ms   edge wins %.2fx\n",
			access, edge, cloud, cloud/edge)
	}

	// Jitter: the edge is far more stable.
	edgeCV := obs.MedianCVAcrossUsers(netmodel.WiFi, crowd.NearestEdge)
	cloudCV := obs.MedianCVAcrossUsers(netmodel.WiFi, crowd.NearestCloud)
	fmt.Printf("WiFi RTT jitter (CV): edge %.3f vs cloud %.3f (%.1fx more stable)\n",
		edgeCV, cloudCV, cloudCV/edgeCV)
}
