// Package topology instantiates the deployment geometry of the platforms the
// paper compares: NEP, the densely deployed public edge platform (>500 sites
// across China, most built atop CDN PoPs in county-level IDCs), and a sparse
// AliCloud-like cloud platform with a handful of large regions. It also
// models inter-site RTTs (Figure 4) and the deployment-density comparison of
// Table 1.
package topology

import (
	"math"
	"sync"

	"edgescope/internal/geo"
	"edgescope/internal/netmodel"
	"edgescope/internal/rng"
)

// Site is one datacenter of a platform.
type Site struct {
	Class netmodel.SiteClass
	// City is the metro the site belongs to; Loc is the actual location,
	// which for edge sites is scattered into the surrounding county-level
	// area (NEP sites live in third-party IDCs, not city centres).
	City geo.City
	Loc  geo.Point
}

// Platform is a set of sites operated by one provider. Sites are immutable
// once the platform is built.
type Platform struct {
	Sites []*Site

	locsOnce sync.Once
	locs     []geo.Point
}

// Locations returns the positions of all sites, aligned with Sites. The
// slice is built once and cached — the crowd campaign ranks sites per user,
// and rebuilding a platform-wide position slice for every user dominated
// that walk's allocations. Callers must not mutate the result.
func (p *Platform) Locations() []geo.Point {
	p.locsOnce.Do(func() {
		out := make([]geo.Point, len(p.Sites))
		for i, s := range p.Sites {
			out[i] = s.Loc
		}
		p.locs = out
	})
	return p.locs
}

// NEPOptions configures BuildNEP.
type NEPOptions struct {
	// TargetSites is the approximate total number of edge sites; the paper
	// reports >500. Defaults to 520.
	TargetSites int
}

func (o *NEPOptions) fill() {
	if o.TargetSites == 0 {
		o.TargetSites = 520
	}
}

// scatterKm is the mean distance from the metro centre at which NEP sites
// are placed (exponentially distributed, capped at 4× the mean).
const scatterKm = 100

// BuildNEP creates the edge platform: sites distributed over the city
// database, with the per-metro count growing sub-linearly with population
// (flattened with an exponent of 0.6, because NEP expands breadth-first into
// county-level IDCs rather than concentrating in tier-1 metros).
func BuildNEP(r *rng.Source, opts NEPOptions) *Platform {
	opts.fill()
	cities := geo.Cities()
	weights := make([]float64, len(cities))
	var totalW float64
	for i, c := range cities {
		weights[i] = math.Pow(c.PopulationM, 0.6)
		totalW += weights[i]
	}
	p := &Platform{}
	for i, c := range cities {
		n := int(math.Round(weights[i] / totalW * float64(opts.TargetSites)))
		if n < 1 {
			n = 1
		}
		for range n {
			loc := scatter(r, c.Loc, scatterKm)
			// The site's server count and gateway capacity are drawn and
			// not kept: nothing reads them, and the draws hold every later
			// one in place.
			r.BoundedPareto(24, 1.6, 300)
			r.Float64()
			p.Sites = append(p.Sites, &Site{Class: netmodel.EdgeSite, City: c, Loc: loc})
		}
	}
	return p
}

// scatter displaces a point by an exponentially distributed distance (mean
// meanKm, capped at 4× mean) in a uniform random bearing.
func scatter(r *rng.Source, c geo.Point, meanKm float64) geo.Point {
	d := r.Exponential(meanKm)
	if d > 4*meanKm {
		d = 4 * meanKm
	}
	theta := r.Uniform(0, 2*math.Pi)
	dlat := d * math.Cos(theta) / 111.0
	dlon := d * math.Sin(theta) / (111.0 * math.Cos(c.Lat*math.Pi/180))
	return geo.Point{Lat: c.Lat + dlat, Lon: c.Lon + dlon}
}

// aliCloudRegionCities mirrors AliCloud's Chinese region footprint.
var aliCloudRegionCities = []string{
	"Beijing", "Shanghai", "Hangzhou", "Shenzhen",
	"Qingdao", "Chengdu", "Hohhot", "Guangzhou",
}

// BuildAliCloud creates the cloud baseline: 8 large regions at major metros.
func BuildAliCloud() *Platform {
	p := &Platform{}
	for _, name := range aliCloudRegionCities {
		c := geo.MustCity(name)
		p.Sites = append(p.Sites, &Site{Class: netmodel.CloudSite, City: c, Loc: c.Loc})
	}
	return p
}

// InterSiteRTTMs models the RTT between two sites over the provider/carrier
// backbone: a small switching base plus ~0.031 ms/km (Figure 4 reaches
// ~100 ms at 3000 km), with log-normal path noise.
func InterSiteRTTMs(r *rng.Source, a, b *Site) float64 {
	d := geo.Haversine(a.Loc, b.Loc)
	base := 1.5 + 0.031*d
	// Same single draw and multiply order as the shared helper, so this
	// rewiring is bit-neutral: base * exp(Normal(0, sigma)).
	return r.LogNormalMeanMedian(base, 0.12)
}

// SitePairRTT is one measured site pair for Figure 4.
type SitePairRTT struct {
	DistanceKm float64
	RTTMs      float64
}

// SampleInterSiteRTTs measures every site pair once (or a random subset of
// maxPairs pairs when the full cross-product is larger).
func SampleInterSiteRTTs(r *rng.Source, p *Platform, maxPairs int) []SitePairRTT {
	n := len(p.Sites)
	total := n * (n - 1) / 2
	var out []SitePairRTT
	if maxPairs <= 0 || total <= maxPairs {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				out = append(out, pairRTT(r, p, i, j))
			}
		}
		return out
	}
	for k := 0; k < maxPairs; k++ {
		i := r.IntN(n)
		j := r.IntN(n)
		if i == j {
			k--
			continue
		}
		out = append(out, pairRTT(r, p, i, j))
	}
	return out
}

func pairRTT(r *rng.Source, p *Platform, i, j int) SitePairRTT {
	return SitePairRTT{
		DistanceKm: geo.Haversine(p.Sites[i].Loc, p.Sites[j].Loc),
		RTTMs:      InterSiteRTTMs(r, p.Sites[i], p.Sites[j]),
	}
}

// NearbySiteCounts returns, for each RTT threshold, the mean number of other
// sites reachable within that RTT, averaged across all sites (the paper
// reports 1/3/11 sites within 5/10/20 ms). To keep this O(n²) computation
// deterministic it uses the noise-free RTT model.
func NearbySiteCounts(p *Platform, thresholdsMs []float64) []float64 {
	n := len(p.Sites)
	counts := make([]float64, len(thresholdsMs))
	if n < 2 {
		return counts
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			rtt := 1.5 + 0.031*geo.Haversine(p.Sites[i].Loc, p.Sites[j].Loc)
			for t, th := range thresholdsMs {
				if rtt <= th {
					counts[t]++
				}
			}
		}
	}
	for t := range counts {
		counts[t] /= float64(n)
	}
	return counts
}

// Deployment is one row of the Table 1 comparison.
type Deployment struct {
	Platform string
	Regions  int
	Coverage string // "Global", "U.S.", "China"
	// AreaMi2 is the covered area in millions of square miles.
	AreaMi2 float64
}

// Density returns regions per million square miles.
func (d Deployment) Density() float64 {
	if d.AreaMi2 == 0 {
		return 0
	}
	return float64(d.Regions) / d.AreaMi2
}

// Areas in millions of square miles.
const (
	areaGlobal = 196.9 // Earth surface
	areaUS     = 3.80
	areaChina  = 3.71
)

// Table1Deployments returns the deployment comparison of Table 1 with NEP's
// row filled from the built platform.
func Table1Deployments(nep *Platform) []Deployment {
	return []Deployment{
		{"AWS EC2", 24, "Global", areaGlobal},
		{"AWS EC2", 6, "U.S.", areaUS},
		{"MS Azure", 33, "Global", areaGlobal},
		{"MS Azure", 8, "U.S.", areaUS},
		{"Google Cloud", 24, "Global", areaGlobal},
		{"Google Cloud", 8, "U.S.", areaUS},
		{"Alibaba Cloud", 23, "Global", areaGlobal},
		{"Alibaba Cloud", 12, "China", areaChina},
		{"Azure Edge Zones", 5, "U.S.", areaUS},
		{"Huawei Cloud", 5, "China", areaChina},
		{"AWS Wavelength + Local Zones", 14, "U.S.", areaUS},
		{"NEP", len(nep.Sites), "China", areaChina},
	}
}

// NearestSites returns the indices of the platform's sites ordered by
// ascending great-circle distance from p.
func (pl *Platform) NearestSites(p geo.Point) []int {
	return geo.RankByDistance(p, pl.Locations())
}
