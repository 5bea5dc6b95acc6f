package workload

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dynp/internal/rng"
)

func TestModelsValidate(t *testing.T) {
	for _, m := range Models() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	for _, want := range []string{"CTC", "KTH", "LANL", "SDSC"} {
		m, err := ByName(want)
		if err != nil || m.Name != want {
			t.Errorf("ByName(%q) = %v, %v", want, m.Name, err)
		}
	}
	if _, err := ByName("NOPE"); err == nil {
		t.Error("ByName accepted junk")
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	mutations := []func(*Model){
		func(m *Model) { m.Machine = 0 },
		func(m *Model) { m.WidthMin = 0 },
		func(m *Model) { m.WidthMax = m.Machine + 1 },
		func(m *Model) { m.WidthAvg = float64(m.WidthMax) + 1 },
		func(m *Model) { m.ActAvg = 0 },
		func(m *Model) { m.Overest = 0.5 },
		func(m *Model) { m.IATAvg = 0 },
		func(m *Model) { m.WidthSigma = 0 },
		func(m *Model) { m.WidthPow2Frac = -0.1 },
		func(m *Model) { m.WidthPow2Frac = 1.1 },
		func(m *Model) { m.ActSigma = 0 },
		func(m *Model) { m.IATBurst = 0 },
		func(m *Model) { m.IATBurst = 1 },
		func(m *Model) { m.LoadTarget = -0.1 },
	}
	for i, mutate := range mutations {
		m := CTC
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// TestValidateRejectsNonFiniteFloats sets every float field of a model in
// turn to NaN and ±Inf: Validate must reject each with an error naming
// the field, and Generate must fail with that error rather than panic or
// return a set.
func TestValidateRejectsNonFiniteFloats(t *testing.T) {
	typ := reflect.TypeOf(Model{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Float64 {
			continue
		}
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			m := CTC
			reflect.ValueOf(&m).Elem().Field(i).SetFloat(v)
			err := m.Validate()
			if err == nil || !strings.Contains(err.Error(), f.Name) {
				t.Errorf("%s = %v: Validate = %v, want an error naming the field", f.Name, v, err)
				continue
			}
			if set, err := m.Generate(10, rng.New(1)); err == nil {
				t.Errorf("%s = %v: Generate returned %d jobs and no error", f.Name, v, len(set.Jobs))
			}
		}
	}
}

// TestValidateAcceptsDomainBoundaries: the closed ends of the float
// domains are valid (a zero LoadTarget disables the load calibration).
func TestValidateAcceptsDomainBoundaries(t *testing.T) {
	for i, mutate := range []func(*Model){
		func(m *Model) { m.WidthPow2Frac = 0 },
		func(m *Model) { m.WidthPow2Frac = 1 },
		func(m *Model) { m.IATBurst = 0.01 },
		func(m *Model) { m.IATBurst = 0.99 },
		func(m *Model) { m.LoadTarget = 0 },
	} {
		m := CTC
		mutate(&m)
		if err := m.Validate(); err != nil {
			t.Errorf("mutation %d rejected: %v", i, err)
		}
	}
}

// TestInvalidModelsStayOutOfCache: a NaN model never equals itself as a
// map key, so a cached fit of one could never be found again.
func TestInvalidModelsStayOutOfCache(t *testing.T) {
	entries := func() int {
		n := 0
		genCache.Range(func(_, _ any) bool { n++; return true })
		return n
	}
	before := entries()
	m := KTH
	m.EstAvg = math.NaN()
	for i := 0; i < 3; i++ {
		if _, err := m.Generate(10, rng.New(1)); err == nil {
			t.Fatal("NaN EstAvg accepted")
		}
	}
	if after := entries(); after != before {
		t.Fatalf("cache grew from %d to %d entries", before, after)
	}
}

// TestFitBitsPinned pins the fitted correlation and overestimation shift
// of every model bit for bit, at one worker and at several: the parallel
// calibration must reproduce the sequential fit exactly.
func TestFitBitsPinned(t *testing.T) {
	want := map[string][2]uint64{
		"CTC":  {0x3f46a8967ccfe59a, 0x40102f6489d32b78},
		"KTH":  {0x3f42769958c70352, 0x3fe85f30e6b7d582},
		"LANL": {0x3fda2621eca481b6, 0x3ffb913c7200fdbe},
		"SDSC": {0x3fc8456c702227b8, 0x4000fe6312e0f3c8},
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, m := range Models() {
			g, err := m.newGenerator()
			if err != nil {
				t.Fatalf("%s: %v", m.Name, err)
			}
			got := [2]uint64{math.Float64bits(g.corr), math.Float64bits(g.overShift)}
			if got != want[m.Name] {
				t.Errorf("GOMAXPROCS=%d %s: corr/overShift bits %016x/%016x, want %016x/%016x",
					procs, m.Name, got[0], got[1], want[m.Name][0], want[m.Name][1])
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestGenerateSetsMatchesSequential checks the parallel set generation
// against a sequential Generate per derived stream, job for job.
func TestGenerateSetsMatchesSequential(t *testing.T) {
	const seed = 99
	sets, err := SDSC.GenerateSets(7, 300, seed)
	if err != nil {
		t.Fatal(err)
	}
	for k, got := range sets {
		want, err := SDSC.Generate(300, rng.New(seed).Derive(hashName(SDSC.Name), uint64(k)))
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != fmt.Sprintf("SDSC/set%02d", k) || got.Machine != want.Machine {
			t.Fatalf("set %d: name %q machine %d", k, got.Name, got.Machine)
		}
		for i := range want.Jobs {
			if *got.Jobs[i] != *want.Jobs[i] {
				t.Fatalf("set %d job %d: %v, want %v", k, i, got.Jobs[i], want.Jobs[i])
			}
		}
	}
}

// TestCachedGeneratorFitsOnce races goroutines on the first use of an
// unfitted model: exactly one of them may run the fit.
func TestCachedGeneratorFitsOnce(t *testing.T) {
	m := KTH
	m.Name = "KTH-fit-once"
	genCache.Delete(m)
	before := fits.Load()
	var wg sync.WaitGroup
	gens := make([]*generator, 16)
	for i := range gens {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := m.cachedGenerator()
			if err != nil {
				t.Error(err)
			}
			gens[i] = g
		}(i)
	}
	wg.Wait()
	if n := fits.Load() - before; n != 1 {
		t.Fatalf("%d fits for one model, want 1", n)
	}
	for _, g := range gens {
		if g != gens[0] {
			t.Fatal("callers got different generators")
		}
	}
}

// BenchmarkNewGenerator times fitting one model from scratch, which is
// what every process pays on the first use of each trace.
func BenchmarkNewGenerator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := KTH.newGenerator(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGenerateProducesValidSets(t *testing.T) {
	for _, m := range Models() {
		set, err := m.Generate(2000, rng.New(1))
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if err := set.Validate(); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if len(set.Jobs) != 2000 {
			t.Fatalf("%s: %d jobs", m.Name, len(set.Jobs))
		}
		if set.Machine != m.Machine {
			t.Fatalf("%s: machine %d", m.Name, set.Machine)
		}
	}
}

// TestTable2Calibration checks the generated workloads against the paper's
// Table 2 statistics: the calibrated means must land within a modest
// tolerance of the published values, and hard bounds must hold exactly.
func TestTable2Calibration(t *testing.T) {
	const n = 20000
	for _, m := range Models() {
		set, err := m.Generate(n, rng.New(7))
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		c := Characterize(set)

		within := func(name string, got, want, tol float64) {
			if want == 0 {
				return
			}
			if math.Abs(got-want)/want > tol {
				t.Errorf("%s: %s = %.2f, want %.2f (±%.0f%%)",
					m.Name, name, got, want, tol*100)
			}
		}
		within("width mean", c.Width.Mean, m.WidthAvg, 0.15)
		within("actual runtime mean", c.Act.Mean, m.ActAvg, 0.10)
		within("estimate mean", c.Est.Mean, m.EstAvg, 0.15)
		within("overestimation factor", c.Overest, m.Overest, 0.15)
		within("interarrival mean", c.IAT.Mean, m.IATAvg, 0.10)

		if c.Width.Min < float64(m.WidthMin) || c.Width.Max > float64(m.WidthMax) {
			t.Errorf("%s: width range [%v,%v] outside [%d,%d]",
				m.Name, c.Width.Min, c.Width.Max, m.WidthMin, m.WidthMax)
		}
		if c.Act.Max > float64(m.ActMax) {
			t.Errorf("%s: actual runtime max %v above %d", m.Name, c.Act.Max, m.ActMax)
		}
		if c.Est.Max > float64(m.EstMax) || c.Est.Min < float64(m.EstMin) {
			t.Errorf("%s: estimate range [%v,%v] outside [%d,%d]",
				m.Name, c.Est.Min, c.Est.Max, m.EstMin, m.EstMax)
		}
	}
}

func TestEstimatesNeverBelowRuntime(t *testing.T) {
	for _, m := range Models() {
		set, err := m.Generate(5000, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range set.Jobs {
			if j.Estimate < j.Runtime {
				t.Fatalf("%s: %s has estimate below runtime", m.Name, j)
			}
		}
	}
}

func TestLANLWidthsArePowersOfTwo(t *testing.T) {
	set, err := LANL.Generate(5000, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range set.Jobs {
		if j.Width < 32 || j.Width > 1024 || j.Width&(j.Width-1) != 0 {
			t.Fatalf("LANL width %d not a CM-5 partition size", j.Width)
		}
	}
}

func TestGenerateSetsIndependentAndReproducible(t *testing.T) {
	a, err := CTC.GenerateSets(3, 500, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CTC.GenerateSets(3, 500, 42)
	if err != nil {
		t.Fatal(err)
	}
	for k := range a {
		for i := range a[k].Jobs {
			x, y := a[k].Jobs[i], b[k].Jobs[i]
			if *x != *y {
				t.Fatalf("set %d job %d not reproducible", k, i)
			}
		}
	}
	// Different sets differ.
	same := 0
	for i := range a[0].Jobs {
		if a[0].Jobs[i].Estimate == a[1].Jobs[i].Estimate {
			same++
		}
	}
	if same == len(a[0].Jobs) {
		t.Fatal("sets 0 and 1 are identical")
	}
	// Different seeds differ.
	c, err := CTC.GenerateSets(1, 500, 43)
	if err != nil {
		t.Fatal(err)
	}
	same = 0
	for i := range a[0].Jobs {
		if a[0].Jobs[i].Estimate == c[0].Jobs[i].Estimate {
			same++
		}
	}
	if same == len(a[0].Jobs) {
		t.Fatal("different seeds produced identical sets")
	}
}

func TestTracesDiffer(t *testing.T) {
	// The four models must produce distinguishable workloads (different
	// mean widths and runtimes).
	r := rng.New(11)
	var widths, runs []float64
	for _, m := range Models() {
		set, err := m.Generate(3000, r.Derive(hashName(m.Name)))
		if err != nil {
			t.Fatal(err)
		}
		c := Characterize(set)
		widths = append(widths, c.Width.Mean)
		runs = append(runs, c.Act.Mean)
	}
	for i := 0; i < len(widths); i++ {
		for k := i + 1; k < len(widths); k++ {
			if math.Abs(widths[i]-widths[k]) < 0.5 && math.Abs(runs[i]-runs[k]) < 100 {
				t.Fatalf("traces %d and %d statistically indistinguishable", i, k)
			}
		}
	}
}

// TestOfferedLoadCalibration checks that the generated mean job area hits
// the offered-load target derived from the paper's utilization at
// shrinking factor 1.0, for every trace.
func TestOfferedLoadCalibration(t *testing.T) {
	const n = 100000
	for _, m := range Models() {
		set, err := m.Generate(n, rng.New(21))
		if err != nil {
			t.Fatal(err)
		}
		var area float64
		for _, j := range set.Jobs {
			area += float64(j.Area())
		}
		load := (area / n) / (float64(m.Machine) * m.IATAvg)
		if math.Abs(load-m.LoadTarget)/m.LoadTarget > 0.10 {
			t.Errorf("%s: offered load %.3f, want %.3f", m.Name, load, m.LoadTarget)
		}
	}
}

// TestWidthRuntimeCorrelation verifies that LANL and SDSC jobs exhibit the
// positive width/run-time correlation the load calibration introduces,
// while the marginals (checked elsewhere) stay on target.
func TestWidthRuntimeCorrelation(t *testing.T) {
	for _, m := range []Model{LANL, SDSC} {
		set, err := m.Generate(10000, rng.New(22))
		if err != nil {
			t.Fatal(err)
		}
		var sw, sr, sww, srr, swr float64
		n := float64(len(set.Jobs))
		for _, j := range set.Jobs {
			w, r := float64(j.Width), float64(j.Runtime)
			sw += w
			sr += r
			sww += w * w
			srr += r * r
			swr += w * r
		}
		corr := (swr/n - sw/n*sr/n) /
			math.Sqrt((sww/n-sw/n*sw/n)*(srr/n-sr/n*sr/n))
		if corr < 0.05 {
			t.Errorf("%s: width/runtime correlation %.3f not positive", m.Name, corr)
		}
	}
}

func TestNearestPow2(t *testing.T) {
	// Rounding happens in log space: 12 is nearer to 16 than to 8 there.
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 4, 6: 8, 12: 16, 48: 64, 96: 128, 100: 128}
	for in, want := range cases {
		if got := nearestPow2(in); got != want {
			t.Errorf("nearestPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestCharacterizeSmallSet(t *testing.T) {
	set, err := KTH.Generate(2, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	c := Characterize(set)
	if c.Jobs != 2 || c.IAT.N != 1 {
		t.Fatalf("characteristics = %+v", c)
	}
}
