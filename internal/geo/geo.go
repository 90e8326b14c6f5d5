// Package geo provides geographic primitives for edgescope: great-circle
// distance, a database of major Chinese cities (the deployment footprint of
// the NEP edge platform studied by the paper), and nearest-neighbour queries
// used by the topology builder and the crowd-measurement campaign.
package geo

import (
	"fmt"
	"math"
	"sort"
)

// Point is a geographic coordinate in decimal degrees.
type Point struct {
	Lat float64
	Lon float64
}

// EarthRadiusKm is the mean Earth radius used by Haversine.
const EarthRadiusKm = 6371.0

// Haversine returns the great-circle distance between two points in
// kilometres.
func Haversine(a, b Point) float64 {
	const deg = math.Pi / 180
	la1, lo1 := a.Lat*deg, a.Lon*deg
	la2, lo2 := b.Lat*deg, b.Lon*deg
	dla, dlo := la2-la1, lo2-lo1
	h := sinSq(dla/2) + math.Cos(la1)*math.Cos(la2)*sinSq(dlo/2)
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

func sinSq(x float64) float64 {
	s := math.Sin(x)
	return s * s
}

// City describes one metro area in the deployment footprint.
type City struct {
	Name     string
	Province string
	// PopulationM is the metro population in millions; it weights edge-site
	// density and user-demand skew.
	PopulationM float64
	Loc         Point
}

// cities is the built-in database. Coordinates are city centres; populations
// are metro-level estimates. 43 cities across 30 provinces, matching the
// scale of the paper's 41-city crowd campaign.
var cities = []City{
	{"Beijing", "Beijing", 21.5, Point{39.90, 116.40}},
	{"Shanghai", "Shanghai", 24.9, Point{31.23, 121.47}},
	{"Guangzhou", "Guangdong", 15.3, Point{23.13, 113.26}},
	{"Shenzhen", "Guangdong", 17.6, Point{22.54, 114.06}},
	{"Chengdu", "Sichuan", 16.3, Point{30.57, 104.07}},
	{"Chongqing", "Chongqing", 32.1, Point{29.56, 106.55}},
	{"Hangzhou", "Zhejiang", 12.2, Point{30.27, 120.16}},
	{"Wuhan", "Hubei", 11.2, Point{30.59, 114.31}},
	{"Xian", "Shaanxi", 12.9, Point{34.34, 108.94}},
	{"Nanjing", "Jiangsu", 9.3, Point{32.06, 118.80}},
	{"Tianjin", "Tianjin", 13.9, Point{39.13, 117.20}},
	{"Suzhou", "Jiangsu", 12.7, Point{31.30, 120.58}},
	{"Zhengzhou", "Henan", 12.6, Point{34.75, 113.62}},
	{"Changsha", "Hunan", 10.0, Point{28.23, 112.94}},
	{"Dongguan", "Guangdong", 10.5, Point{23.02, 113.75}},
	{"Qingdao", "Shandong", 10.1, Point{36.07, 120.38}},
	{"Shenyang", "Liaoning", 9.1, Point{41.80, 123.43}},
	{"Jinan", "Shandong", 9.2, Point{36.65, 117.12}},
	{"Harbin", "Heilongjiang", 10.0, Point{45.80, 126.53}},
	{"Kunming", "Yunnan", 8.5, Point{25.04, 102.72}},
	{"Dalian", "Liaoning", 7.5, Point{38.91, 121.60}},
	{"Fuzhou", "Fujian", 8.3, Point{26.08, 119.30}},
	{"Xiamen", "Fujian", 5.2, Point{24.48, 118.09}},
	{"Hefei", "Anhui", 9.4, Point{31.82, 117.23}},
	{"Nanning", "Guangxi", 8.7, Point{22.82, 108.37}},
	{"Shijiazhuang", "Hebei", 11.0, Point{38.04, 114.51}},
	{"Taiyuan", "Shanxi", 5.3, Point{37.87, 112.55}},
	{"Guiyang", "Guizhou", 5.9, Point{26.65, 106.63}},
	{"Nanchang", "Jiangxi", 6.3, Point{28.68, 115.86}},
	{"Changchun", "Jilin", 9.1, Point{43.82, 125.32}},
	{"Urumqi", "Xinjiang", 4.1, Point{43.83, 87.62}},
	{"Lanzhou", "Gansu", 4.4, Point{36.06, 103.83}},
	{"Hohhot", "InnerMongolia", 3.4, Point{40.84, 111.75}},
	{"Yinchuan", "Ningxia", 2.9, Point{38.49, 106.23}},
	{"Xining", "Qinghai", 2.5, Point{36.62, 101.78}},
	{"Lhasa", "Tibet", 0.9, Point{29.65, 91.14}},
	{"Haikou", "Hainan", 2.9, Point{20.04, 110.34}},
	{"Ningbo", "Zhejiang", 9.4, Point{29.87, 121.54}},
	{"Wuxi", "Jiangsu", 7.5, Point{31.49, 120.31}},
	{"Foshan", "Guangdong", 9.5, Point{23.02, 113.12}},
	{"Wenzhou", "Zhejiang", 9.6, Point{27.99, 120.70}},
	{"Zhuhai", "Guangdong", 2.4, Point{22.27, 113.58}},
	{"Tangshan", "Hebei", 7.7, Point{39.63, 118.18}},
}

// Cities returns a copy of the built-in city database.
func Cities() []City {
	out := make([]City, len(cities))
	copy(out, cities)
	return out
}

// CityByName looks a city up by name. The second result reports whether the
// city exists in the database.
func CityByName(name string) (City, bool) {
	for _, c := range cities {
		if c.Name == name {
			return c, true
		}
	}
	return City{}, false
}

// MustCity returns the named city or panics; use for static configuration.
func MustCity(name string) City {
	c, ok := CityByName(name)
	if !ok {
		panic(fmt.Sprintf("geo: unknown city %q", name))
	}
	return c
}

// RankByDistance returns indices of items sorted by ascending great-circle
// distance from p. The positions slice supplies each item's location.
func RankByDistance(p Point, positions []Point) []int {
	idx := make([]int, len(positions))
	d := make([]float64, len(positions))
	for i, q := range positions {
		idx[i] = i
		d[i] = Haversine(p, q)
	}
	sort.SliceStable(idx, func(a, b int) bool { return d[idx[a]] < d[idx[b]] })
	return idx
}
