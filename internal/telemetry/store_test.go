package telemetry

import (
	"fmt"
	"math"
	"testing"

	"autosec/internal/sim"
)

// recordRef is one data point of the original per-record store.
type recordRef struct {
	VIN       string
	OwnerName string
	Email     string
	Lat, Lon  float64
	Timestamp int64
}

// newCloudRef is the original per-record NewCloud loop, kept verbatim
// as the reference the per-vehicle store is pinned against bit for bit.
// It returns the fleet's VINs in order and each VIN's records.
func newCloudRef(cfg Config, vehicles, pointsPerVehicle int, rng *sim.RNG) ([]string, map[string][]recordRef) {
	var vins []string
	records := make(map[string][]recordRef, vehicles)
	for i := 0; i < vehicles; i++ {
		vin := fmt.Sprintf("WVWZZZ%07d", i)
		vins = append(vins, vin)
		lat := 48.0 + rng.Float64()*4 // somewhere in central Europe
		lon := 8.0 + rng.Float64()*6
		recs := make([]recordRef, 0, pointsPerVehicle)
		for p := 0; p < pointsPerVehicle; p++ {
			la, lo := lat+rng.NormFloat64()*0.05, lon+rng.NormFloat64()*0.05
			if cfg.CoarseLocation {
				la = math.Round(la*100) / 100 // ~1 km grid
				lo = math.Round(lo*100) / 100
			}
			recs = append(recs, recordRef{
				VIN:       vin,
				OwnerName: fmt.Sprintf("owner-%d", i),
				Email:     fmt.Sprintf("owner-%d@example.com", i),
				Lat:       la, Lon: lo,
				Timestamp: int64(p) * 3600,
			})
		}
		records[vin] = recs
	}
	return vins, records
}

// viewRef derives what the kill chain read from a fetched record slice
// before Fetch returned a view: the count, the distinct VINs, whether
// personal data was included, and the old LocationPrecisionM.
type viewRef struct {
	Len, Vehicles int
	PersonalData  bool
	PrecisionM    float64
}

func deriveRef(recs []recordRef) viewRef {
	v := viewRef{Len: len(recs)}
	vins := map[string]bool{}
	for _, r := range recs {
		vins[r.VIN] = true
		if r.OwnerName != "" || r.Email != "" {
			v.PersonalData = true
		}
	}
	v.Vehicles = len(vins)
	if len(recs) == 0 {
		return v
	}
	v.PrecisionM = 1000
	for _, r := range recs {
		if math.Abs(r.Lat*100-math.Round(r.Lat*100)) > 1e-9 {
			v.PrecisionM = 10
			break
		}
	}
	return v
}

func derive(r Records) viewRef {
	return viewRef{Len: r.Len(), Vehicles: r.Vehicles(), PersonalData: r.PersonalData(), PrecisionM: r.PrecisionM()}
}

// checkCloudMatchesRef builds the store and the reference from one seed
// and requires the same identities, the same bits of every position,
// the same RNG position afterwards, and the same view derivations for
// the fleet scope and for every single-VIN scope.
func checkCloudMatchesRef(t *testing.T, cfg Config, vehicles, points int, seed int64) {
	t.Helper()
	rng, refRNG := sim.NewRNG(seed), sim.NewRNG(seed)
	c := NewCloud(cfg, vehicles, points, rng)
	vins, records := newCloudRef(cfg, vehicles, points, refRNG)
	name := fmt.Sprintf("coarse=%v vehicles=%d points=%d seed=%d", cfg.CoarseLocation, vehicles, points, seed)

	if rng.Draws() != refRNG.Draws() {
		t.Fatalf("%s: %d draws, reference %d", name, rng.Draws(), refRNG.Draws())
	}
	if rng.Uint64() != refRNG.Uint64() {
		t.Fatalf("%s: the next draw differs from the reference's", name)
	}
	if c.Fleet() != len(vins) {
		t.Fatalf("%s: fleet %d, reference %d", name, c.Fleet(), len(vins))
	}
	var all []recordRef
	for i, vin := range vins {
		v := &c.fleet[i]
		if v.vin != vin || c.byVIN[vin] != i {
			t.Fatalf("%s: vehicle %d VIN %q (index %d), reference %q", name, i, v.vin, c.byVIN[vin], vin)
		}
		recs := records[vin]
		if len(v.lat) != len(recs) || len(v.lon) != len(recs) {
			t.Fatalf("%s: %s holds %d/%d points, reference %d", name, vin, len(v.lat), len(v.lon), len(recs))
		}
		for p, r := range recs {
			if r.VIN != v.vin || r.OwnerName != v.owner || r.Email != v.email {
				t.Fatalf("%s: %s point %d identity (%q, %q, %q), reference (%q, %q, %q)",
					name, vin, p, v.vin, v.owner, v.email, r.VIN, r.OwnerName, r.Email)
			}
			if math.Float64bits(v.lat[p]) != math.Float64bits(r.Lat) || math.Float64bits(v.lon[p]) != math.Float64bits(r.Lon) {
				t.Fatalf("%s: %s point %d at (%v, %v), reference (%v, %v)", name, vin, p, v.lat[p], v.lon[p], r.Lat, r.Lon)
			}
			// The store derives point p's timestamp as p·3600 s.
			if r.Timestamp != int64(p)*3600 {
				t.Fatalf("%s: %s point %d reference timestamp %d", name, vin, p, r.Timestamp)
			}
		}
		all = append(all, recs...)
	}
	if got := c.VINs(); fmt.Sprint(got) != fmt.Sprint(vins) {
		t.Fatalf("%s: VINs %v, reference %v", name, got, vins)
	}
	if n := (Records{c.fleet}).Len(); n != len(all) {
		t.Errorf("%s: stored records %d, reference %d", name, n, len(all))
	}

	check := func(scope string, want viewRef) {
		t.Helper()
		tok, err := c.MintToken(c.masterKey, scope)
		if err != nil {
			t.Fatalf("%s: mint %q: %v", name, scope, err)
		}
		recs, err := c.Fetch(tok)
		if err != nil {
			t.Fatalf("%s: fetch %q: %v", name, scope, err)
		}
		if got := derive(recs); got != want {
			t.Errorf("%s: scope %q view %+v, reference %+v", name, scope, got, want)
		}
		if ev := c.events[len(c.events)-1]; ev.Kind != "fetch" || ev.Records != want.Len || ev.FleetScope != (scope == "") {
			t.Errorf("%s: scope %q fetch event %+v, want %d records", name, scope, ev, want.Len)
		}
	}
	check("", deriveRef(all))
	for _, vin := range vins {
		check(vin, deriveRef(records[vin]))
	}
}

// TestCloudMatchesReference pins the per-vehicle store to the original
// per-record loop over both location postures, empty, single and
// multi-vehicle fleets, and empty, single and multi-point histories.
func TestCloudMatchesReference(t *testing.T) {
	t.Parallel()
	coarse := WorstCase()
	coarse.CoarseLocation = true
	for _, cfg := range []Config{WorstCase(), coarse} {
		for _, vehicles := range []int{0, 1, 50} {
			for _, points := range []int{0, 1, 40} {
				for _, seed := range []int64{42, 7919} {
					checkCloudMatchesRef(t, cfg, vehicles, points, seed)
				}
			}
		}
	}
}

// TestFetchViewDerivations checks the view against hand-counted values
// and that it aliases the store instead of copying it.
func TestFetchViewDerivations(t *testing.T) {
	t.Parallel()
	coarse := WorstCase()
	coarse.CoarseLocation = true
	cases := []struct {
		cfg              Config
		vehicles, points int
		fleet, single    viewRef
	}{
		{WorstCase(), 50, 40, viewRef{2000, 50, true, 10}, viewRef{40, 1, true, 10}},
		{coarse, 50, 40, viewRef{2000, 50, true, 1000}, viewRef{40, 1, true, 1000}},
		{WorstCase(), 1, 1, viewRef{1, 1, true, 10}, viewRef{1, 1, true, 10}},
		// An empty history: the VIN exists, but no record does, and a
		// view of nothing carries no personal data and no precision.
		{WorstCase(), 50, 0, viewRef{}, viewRef{}},
	}
	for _, tc := range cases {
		c := NewCloud(tc.cfg, tc.vehicles, tc.points, sim.NewRNG(1))
		fleetTok, _ := c.MintToken(c.masterKey, "")
		all, err := c.Fetch(fleetTok)
		if err != nil {
			t.Fatal(err)
		}
		if got := derive(all); got != tc.fleet {
			t.Errorf("%d×%d coarse=%v fleet view %+v, want %+v", tc.vehicles, tc.points, tc.cfg.CoarseLocation, got, tc.fleet)
		}
		if &all.vehicles[0] != &c.fleet[0] {
			t.Error("fleet view copied the store")
		}
		vin := c.VINs()[tc.vehicles-1]
		vinTok, _ := c.MintToken(c.masterKey, vin)
		one, err := c.Fetch(vinTok)
		if err != nil {
			t.Fatal(err)
		}
		if got := derive(one); got != tc.single {
			t.Errorf("%d×%d coarse=%v view of %s %+v, want %+v", tc.vehicles, tc.points, tc.cfg.CoarseLocation, vin, got, tc.single)
		}
		if len(one.vehicles) != 1 || &one.vehicles[0] != &c.fleet[tc.vehicles-1] {
			t.Errorf("view of %s is not that vehicle's entry in the store", vin)
		}
	}
}

// FuzzCloudEquivalence fuzzes the seed, the fleet size, the history
// length and the location posture, and checks the store against the
// per-record reference.
func FuzzCloudEquivalence(f *testing.F) {
	f.Add(int64(42), uint8(50), uint8(40), false)
	f.Add(int64(7919), uint8(3), uint8(1), true)
	f.Add(int64(1), uint8(0), uint8(9), false)
	f.Add(int64(-5), uint8(7), uint8(0), true)
	f.Fuzz(func(t *testing.T, seed int64, vehicles, points uint8, coarse bool) {
		cfg := WorstCase()
		cfg.CoarseLocation = coarse
		checkCloudMatchesRef(t, cfg, int(vehicles%65), int(points%65), seed)
	})
}
