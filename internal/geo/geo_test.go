package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHaversineKnownDistances(t *testing.T) {
	bj := MustCity("Beijing").Loc
	sh := MustCity("Shanghai").Loc
	gz := MustCity("Guangzhou").Loc

	// Beijing–Shanghai is ~1070 km, Beijing–Guangzhou ~1890 km.
	if d := Haversine(bj, sh); d < 1000 || d > 1150 {
		t.Fatalf("Beijing-Shanghai = %.0f km, want ~1070", d)
	}
	if d := Haversine(bj, gz); d < 1800 || d > 1980 {
		t.Fatalf("Beijing-Guangzhou = %.0f km, want ~1890", d)
	}
}

func TestHaversineProperties(t *testing.T) {
	gen := func(lat, lon float64) Point {
		return Point{Lat: math.Mod(math.Abs(lat), 90), Lon: math.Mod(math.Abs(lon), 180)}
	}
	if err := quick.Check(func(a1, o1, a2, o2 float64) bool {
		if anyNaN(a1, o1, a2, o2) {
			return true
		}
		p, q := gen(a1, o1), gen(a2, o2)
		d1, d2 := Haversine(p, q), Haversine(q, p)
		if d1 < 0 {
			return false
		}
		if math.Abs(d1-d2) > 1e-9 {
			return false // symmetry
		}
		return Haversine(p, p) < 1e-9 // identity
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHaversineTriangleInequality(t *testing.T) {
	cs := Cities()
	for i := 0; i < len(cs); i += 5 {
		for j := 1; j < len(cs); j += 7 {
			for k := 2; k < len(cs); k += 11 {
				a, b, c := cs[i].Loc, cs[j].Loc, cs[k].Loc
				if Haversine(a, c) > Haversine(a, b)+Haversine(b, c)+1e-6 {
					t.Fatalf("triangle inequality violated for %s %s %s",
						cs[i].Name, cs[j].Name, cs[k].Name)
				}
			}
		}
	}
}

func anyNaN(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

func TestCityDatabaseSanity(t *testing.T) {
	cs := Cities()
	if len(cs) < 40 {
		t.Fatalf("city database too small: %d", len(cs))
	}
	seen := map[string]bool{}
	for _, c := range cs {
		if seen[c.Name] {
			t.Fatalf("duplicate city %q", c.Name)
		}
		seen[c.Name] = true
		if c.PopulationM <= 0 {
			t.Fatalf("%s has non-positive population", c.Name)
		}
		if c.Loc.Lat < 18 || c.Loc.Lat > 54 || c.Loc.Lon < 73 || c.Loc.Lon > 136 {
			t.Fatalf("%s coordinates %v outside China bounding box", c.Name, c.Loc)
		}
	}
}

func TestCitiesReturnsCopy(t *testing.T) {
	a := Cities()
	a[0].Name = "Mutated"
	if b := Cities(); b[0].Name == "Mutated" {
		t.Fatal("Cities exposes internal slice")
	}
}

func TestCityByName(t *testing.T) {
	c, ok := CityByName("Chengdu")
	if !ok || c.Province != "Sichuan" {
		t.Fatalf("CityByName(Chengdu) = %+v, %v", c, ok)
	}
	if _, ok := CityByName("Atlantis"); ok {
		t.Fatal("found nonexistent city")
	}
}

func TestMustCityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCity did not panic")
		}
	}()
	MustCity("Atlantis")
}

func TestRankByDistance(t *testing.T) {
	bj := MustCity("Beijing").Loc
	pos := []Point{
		MustCity("Guangzhou").Loc, // far
		MustCity("Tianjin").Loc,   // near
		MustCity("Shanghai").Loc,  // middle
	}
	got := RankByDistance(bj, pos)
	want := []int{1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RankByDistance = %v, want %v", got, want)
		}
	}
}

func TestRankByDistanceIsPermutation(t *testing.T) {
	if err := quick.Check(func(n uint8) bool {
		k := int(n%20) + 1
		pos := make([]Point, k)
		for i := range pos {
			pos[i] = Point{Lat: float64(i), Lon: float64(i * 2)}
		}
		r := RankByDistance(Point{10, 10}, pos)
		seen := make([]bool, k)
		for _, v := range r {
			if v < 0 || v >= k || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(r) == k
	}, nil); err != nil {
		t.Fatal(err)
	}
}
