// Package crowd reproduces the paper's crowd-sourced measurement campaign
// (§2.1.1, §3.1, §3.2): a population of volunteer users spread over Chinese
// cities and surrounding county areas runs repeated pings, traceroutes and
// iperf tests against the nearest/3rd-nearest edge sites and the cloud
// regions, and the per-user results aggregate into the paper's Figures 2, 3
// and 5 and Tables 3 and 4.
//
// The campaign is sized entirely by a scenario.CrowdSpec — the population,
// its geography and access mix, and the probe schedule all come from the
// declarative scenario layer, so a new measurement scenario is a data
// change, not a code change here.
package crowd

import (
	"fmt"
	"math"

	"edgescope/internal/geo"
	"edgescope/internal/netmodel"
	"edgescope/internal/obs"
	"edgescope/internal/par"
	"edgescope/internal/probe"
	"edgescope/internal/rng"
	"edgescope/internal/scenario"
	"edgescope/internal/stats"
	"edgescope/internal/topology"
)

// User is one crowd participant.
type User struct {
	ID     int
	Metro  geo.City
	Loc    geo.Point
	Access netmodel.Access
	// County reports that the user lives outside the metro proper (in a
	// county-level town 60–300 km away), and is therefore not co-located
	// with any site city. The paper found 69% of its participants were not
	// co-located with any edge or cloud site.
	County bool
}

// GenerateUsers creates the participant population declared by the spec:
// metros drawn population-weighted, a CountyFraction of users displaced
// 60–300 km out of town, and 5G users pinned to Beijing (the paper notes
// almost all its 5G samples came from Beijing due to limited coverage
// elsewhere in 2020). Unset spec fields take the paper defaults.
func GenerateUsers(r *rng.Source, spec scenario.CrowdSpec) []User {
	spec = spec.WithDefaults()
	cities := geo.Cities()
	weights := make([]float64, len(cities))
	for i, c := range cities {
		weights[i] = c.PopulationM
	}
	users := make([]User, 0, spec.Users)
	for i := 0; i < spec.Users; i++ {
		access := netmodel.PickAccess(r, spec.Mix)
		var metro geo.City
		county := false
		if access == netmodel.FiveG {
			metro = geo.MustCity("Beijing")
		} else {
			metro = cities[r.Choice(weights)]
			county = r.Bernoulli(spec.CountyFraction)
		}
		loc := metro.Loc
		if county {
			d := r.Uniform(60, 300)
			theta := r.Uniform(0, 2*math.Pi)
			loc = geo.Point{
				Lat: metro.Loc.Lat + d*math.Cos(theta)/111,
				Lon: metro.Loc.Lon + d*math.Sin(theta)/(111*math.Cos(metro.Loc.Lat*math.Pi/180)),
			}
		} else {
			// In-town scatter of a few km.
			loc = geo.Point{
				Lat: metro.Loc.Lat + r.Normal(0, 0.05),
				Lon: metro.Loc.Lon + r.Normal(0, 0.05),
			}
		}
		users = append(users, User{ID: i, Metro: metro, Loc: loc, Access: access, County: county})
	}
	return users
}

// TargetKind identifies which destination a latency observation measured.
type TargetKind int

// The paper's four latency baselines (§3.1).
const (
	NearestEdge TargetKind = iota
	ThirdNearestEdge
	NearestCloud
	// CloudMember marks one observation of the "all clouds" average: every
	// cloud region is measured and results are averaged per user.
	CloudMember
)

// String names the target kind.
func (k TargetKind) String() string {
	switch k {
	case NearestEdge:
		return "nearest-edge"
	case ThirdNearestEdge:
		return "3rd-nearest-edge"
	case NearestCloud:
		return "nearest-cloud"
	default:
		return "all-clouds"
	}
}

// Observation is one user×target latency measurement: the aggregate of
// Repeats pings plus one traceroute over a freshly built path. It is the
// value one probe returns and ObservationStore.Row reassembles; the
// campaign's observations live only in the store's columns.
type Observation struct {
	UserID      int
	Access      netmodel.Access
	Target      TargetKind
	SiteMetro   string
	CityDistKm  float64 // city-level distance (0 when co-located, Table 4)
	MedianRTTMs float64
	CV          float64
	HopCount    int
	Share1      float64
	Share2      float64
	Share3      float64
	ShareRest   float64
}

// Campaign binds the platforms and participants of one measurement study.
type Campaign struct {
	NEP   *topology.Platform
	Cloud *topology.Platform
	Users []User
	// Spec is the resolved (defaults-applied) crowd slice of the scenario
	// the campaign was built from; it schedules both the ping and the iperf
	// studies.
	Spec scenario.CrowdSpec
	// Tracer, when set, records one "observe" span per observation walk. It
	// never affects the observations themselves — the store stays
	// byte-identical with and without it.
	Tracer *obs.Tracer
	// Workers bounds the per-user fan-out of NewObservationStore and
	// RunThroughput (par.Workers semantics: <= 0 means one worker per CPU).
	// Like the tracer, it never affects what is observed.
	Workers int
}

// NewCampaign assembles the campaign a scenario declares. Unset spec fields
// take the paper defaults.
func NewCampaign(r *rng.Source, spec scenario.CrowdSpec) *Campaign {
	spec = spec.WithDefaults()
	return &Campaign{
		NEP:   topology.BuildNEP(r.Fork("nep"), topology.NEPOptions{}),
		Cloud: topology.BuildAliCloud(),
		Users: GenerateUsers(r.Fork("users"), spec),
		Spec:  spec,
	}
}

// obsScratch is one worker's reusable probe state: the ping buffer
// VirtualPingInto refills and the selection scratch the median query reuses.
type obsScratch struct {
	ping probe.PingStats
	sel  stats.Scratch
}

// observeUser measures every target of one user from a common-random-number
// sub-stream rebuilt per target off the user's pre-forked seed, writing its
// 3 + len(c.Cloud.Sites) observations into st from row on.
func (c *Campaign) observeUser(seed uint64, u User, st *ObservationStore, row int, sc *obsScratch) {
	crn := func() *rng.Source { return rng.New(seed) }
	edgeRank := c.NEP.NearestSites(u.Loc)
	cloudRank := c.Cloud.NearestSites(u.Loc)
	st.set(row, c.observe(crn(), u, NearestEdge, c.NEP.Sites[edgeRank[0]], sc))
	st.set(row+1, c.observe(crn(), u, ThirdNearestEdge, c.NEP.Sites[edgeRank[2]], sc))
	st.set(row+2, c.observe(crn(), u, NearestCloud, c.Cloud.Sites[cloudRank[0]], sc))
	for j, ci := range cloudRank {
		st.set(row+3+j, c.observe(crn(), u, CloudMember, c.Cloud.Sites[ci], sc))
	}
}

func (c *Campaign) observe(r *rng.Source, u User, kind TargetKind, site *topology.Site, sc *obsScratch) Observation {
	dist := geo.Haversine(u.Loc, site.Loc)
	path := netmodel.BuildPath(r, u.Access, site.Class, dist)
	probe.VirtualPingInto(r, path, c.Spec.Repeats, &sc.ping)
	st := &sc.ping
	s1, s2, s3, rest := path.HopShare()

	cityDist := geo.Haversine(u.Metro.Loc, site.City.Loc)
	if !u.County && u.Metro.Name == site.City.Name {
		cityDist = 0
	}
	if u.County {
		cityDist = dist
	}
	return Observation{
		UserID:      u.ID,
		Access:      u.Access,
		Target:      kind,
		SiteMetro:   site.City.Name,
		CityDistKm:  cityDist,
		MedianRTTMs: sc.sel.Percentile(st.RTTs, 50), // == st.MedianMs(), no copy alloc
		CV:          st.CV(),
		HopCount:    path.HopCount(),
		Share1:      s1,
		Share2:      s2,
		Share3:      s3,
		ShareRest:   rest,
	}
}

// ThroughputObs is one user×site×direction iperf measurement (Figure 5).
type ThroughputObs struct {
	UserID     int
	Access     netmodel.Access
	Dir        netmodel.Direction
	DistanceKm float64
	Mbps       float64
}

// RunThroughput executes the iperf campaign the scenario schedules
// (Spec.ThroughputUsers testers × Spec.ThroughputSites edge sites, one site
// per metro to maximise distance spread, down- and uplink each, against
// Spec.ServerMbps servers, with Spec.WiredShare of testers flipped to wired
// access).
func (c *Campaign) RunThroughput(r *rng.Source) []ThroughputObs {
	// One site per distinct metro, round-robin until ThroughputSites.
	seen := map[string]bool{}
	var sites []*topology.Site
	for _, s := range c.NEP.Sites {
		if len(sites) >= c.Spec.ThroughputSites {
			break
		}
		if seen[s.City.Name] {
			continue
		}
		seen[s.City.Name] = true
		sites = append(sites, s)
	}

	// Testers: reuse latency users, flipping some to wired access. As in
	// the latency walk, each tester gets a pre-forked sub-stream and an output slot,
	// so the parallel fan-out stays deterministic.
	n := c.Spec.ThroughputUsers
	if n > len(c.Users) {
		n = len(c.Users)
	}
	srcs := make([]*rng.Source, n)
	for i := 0; i < n; i++ {
		srcs[i] = r.Fork(fmt.Sprintf("tester-%d", c.Users[i].ID))
	}
	perUser := make([][]ThroughputObs, n)
	par.ForEach(n, c.Workers, func(i int) {
		u, ru := c.Users[i], srcs[i]
		if ru.Bernoulli(c.Spec.WiredShare) {
			u.Access = netmodel.Wired
		}
		obs := make([]ThroughputObs, 0, 2*len(sites))
		for _, s := range sites {
			dist := geo.Haversine(u.Loc, s.Loc)
			path := netmodel.BuildPath(ru, u.Access, netmodel.EdgeSite, dist)
			for _, dir := range []netmodel.Direction{netmodel.Downlink, netmodel.Uplink} {
				res := probe.VirtualIperf(ru, path, dir, c.Spec.ServerMbps)
				obs = append(obs, ThroughputObs{
					UserID:     u.ID,
					Access:     u.Access,
					Dir:        dir,
					DistanceKm: dist,
					Mbps:       res.Mbps,
				})
			}
		}
		perUser[i] = obs
	})
	out := make([]ThroughputObs, 0, n*2*len(sites))
	for _, obs := range perUser {
		out = append(out, obs...)
	}
	return out
}
