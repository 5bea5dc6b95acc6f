// Package workload synthesises job sets modelled on the four Parallel
// Workloads Archive traces the paper evaluates (CTC, KTH, LANL, SDSC).
//
// The paper does not replay the raw traces; it generates synthetic job
// sets "based on" them (ten sets of 10,000 jobs per trace). The archive is
// not reachable from this offline environment, so the models here are
// calibrated to every statistic the paper publishes in its Table 2: machine
// size, width min/avg/max, estimated and actual run time min/avg/max, the
// average overestimation factor, and interarrival min/avg/max. Widths and
// run times follow clamped log-normal distributions (the standard model for
// production supercomputer workloads); interarrival times follow a bursty
// two-phase hyper-exponential; LANL widths are powers of two from 32 to
// 1024, matching the CM-5 partition sizes. Real SWF trace files can be
// substituted via package swf.
package workload

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"dynp/internal/job"
	"dynp/internal/rng"
	"dynp/internal/shard"
	"dynp/internal/stats"
)

// Model is a parametric description of one trace, sufficient to generate
// synthetic job sets with the published characteristics.
type Model struct {
	Name      string
	Machine   int // available processors on the modelled machine
	TraceJobs int // jobs in the original trace (informational, Table 2)

	// Width (requested processors).
	WidthMin, WidthMax int
	WidthAvg           float64
	WidthSigma         float64 // spread of the underlying log-normal
	WidthPow2Frac      float64 // fraction of widths snapped to powers of two
	WidthPow2Only      bool    // widths are powers of two only (LANL/CM-5)

	// Actual run time, seconds. The generator enforces >= 1 s so the
	// planning semantics (kill at estimate) stay well defined.
	ActMin, ActMax int64
	ActAvg         float64
	ActSigma       float64

	// Estimated run time, seconds. Estimates are derived from actual run
	// times through a random overestimation factor >= 1 with mean
	// Overest, then clamped into [EstMin, EstMax] without undercutting
	// the actual run time.
	EstMin, EstMax int64
	EstAvg         float64
	Overest        float64 // EstAvg / ActAvg in the original trace

	// Interarrival time, seconds.
	IATAvg   float64
	IATMax   int64
	IATBurst float64 // fraction of the mean carried by rare long gaps

	// LoadTarget is the offered load (mean job area / (machine size x
	// mean interarrival time)) the generator calibrates to, taken from
	// the utilization the paper observes at shrinking factor 1.0 (its
	// Table 4), where the system is unsaturated and utilization equals
	// offered load. Table 2's marginal means alone understate E[width x
	// runtime] for LANL and SDSC — the traces correlate width with run
	// time — so the generator couples the two through a latent normal
	// whose correlation is solved to hit this target. Zero disables the
	// calibration (correlation 0).
	LoadTarget float64
}

// The four trace models with the characteristics of the paper's Table 2.
var (
	// CTC: Cornell Theory Center IBM SP2, 430 processors.
	CTC = Model{
		Name: "CTC", Machine: 430, TraceJobs: 79302,
		WidthMin: 1, WidthMax: 336, WidthAvg: 10.72, WidthSigma: 1.3, WidthPow2Frac: 0.75,
		ActMin: 1, ActMax: 64800, ActAvg: 10958, ActSigma: 1.9,
		EstMin: 1, EstMax: 64800, EstAvg: 24324, Overest: 2.220,
		IATAvg: 369, IATMax: 164472, IATBurst: 0.35,
		LoadTarget: 0.755,
	}
	// KTH: Swedish Royal Institute of Technology IBM SP2, 100 processors.
	KTH = Model{
		Name: "KTH", Machine: 100, TraceJobs: 28490,
		WidthMin: 1, WidthMax: 100, WidthAvg: 7.66, WidthSigma: 1.2, WidthPow2Frac: 0.75,
		ActMin: 1, ActMax: 216000, ActAvg: 8858, ActSigma: 2.1,
		EstMin: 60, EstMax: 216000, EstAvg: 13678, Overest: 1.544,
		IATAvg: 1031, IATMax: 327952, IATBurst: 0.40,
		LoadTarget: 0.688,
	}
	// LANL: Los Alamos CM-5, 1024 processors, partition widths 32..1024.
	LANL = Model{
		Name: "LANL", Machine: 1024, TraceJobs: 201387,
		WidthMin: 32, WidthMax: 1024, WidthAvg: 104.95, WidthSigma: 1.0, WidthPow2Only: true,
		ActMin: 1, ActMax: 25200, ActAvg: 1659, ActSigma: 1.8,
		EstMin: 1, EstMax: 30000, EstAvg: 3683, Overest: 2.220,
		IATAvg: 509, IATMax: 201006, IATBurst: 0.35,
		LoadTarget: 0.636,
	}
	// SDSC: San Diego Supercomputer Center IBM SP2, 128 processors.
	SDSC = Model{
		Name: "SDSC", Machine: 128, TraceJobs: 67667,
		WidthMin: 1, WidthMax: 128, WidthAvg: 10.54, WidthSigma: 1.25, WidthPow2Frac: 0.75,
		ActMin: 1, ActMax: 172800, ActAvg: 6077, ActSigma: 2.0,
		EstMin: 2, EstMax: 172800, EstAvg: 14344, Overest: 2.360,
		IATAvg: 934, IATMax: 79503, IATBurst: 0.40,
		LoadTarget: 0.786,
	}
)

// Models returns the four paper traces in the paper's order.
func Models() []Model { return []Model{CTC, KTH, LANL, SDSC} }

// ByName looks a model up by its trace name.
func ByName(name string) (Model, error) {
	for _, m := range Models() {
		if m.Name == name {
			return m, nil
		}
	}
	return Model{}, fmt.Errorf("workload: unknown trace %q", name)
}

// Validate checks the model parameters for internal consistency. Every
// float parameter must be finite and inside the domain the fit accepts;
// the error names the offending field.
func (m Model) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"WidthAvg", m.WidthAvg}, {"WidthSigma", m.WidthSigma}, {"WidthPow2Frac", m.WidthPow2Frac},
		{"ActAvg", m.ActAvg}, {"ActSigma", m.ActSigma},
		{"EstAvg", m.EstAvg}, {"Overest", m.Overest},
		{"IATAvg", m.IATAvg}, {"IATBurst", m.IATBurst},
		{"LoadTarget", m.LoadTarget},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("workload: %s: %s %v is not finite", m.Name, f.name, f.v)
		}
	}
	switch {
	case m.Machine < 1:
		return fmt.Errorf("workload: %s: machine %d < 1", m.Name, m.Machine)
	case m.WidthMin < 1 || m.WidthMax > m.Machine || m.WidthMin > m.WidthMax:
		return fmt.Errorf("workload: %s: width bounds [%d,%d] invalid for machine %d",
			m.Name, m.WidthMin, m.WidthMax, m.Machine)
	case m.WidthAvg <= float64(m.WidthMin) || m.WidthAvg >= float64(m.WidthMax):
		return fmt.Errorf("workload: %s: width avg %v outside (%d,%d)",
			m.Name, m.WidthAvg, m.WidthMin, m.WidthMax)
	case m.WidthSigma <= 0:
		return fmt.Errorf("workload: %s: WidthSigma %v <= 0", m.Name, m.WidthSigma)
	case m.WidthPow2Frac < 0 || m.WidthPow2Frac > 1:
		return fmt.Errorf("workload: %s: WidthPow2Frac %v outside [0,1]", m.Name, m.WidthPow2Frac)
	case m.ActAvg <= 1 || m.ActAvg >= float64(m.ActMax):
		return fmt.Errorf("workload: %s: actual runtime avg %v invalid", m.Name, m.ActAvg)
	case m.ActSigma <= 0:
		return fmt.Errorf("workload: %s: ActSigma %v <= 0", m.Name, m.ActSigma)
	case m.Overest < 1:
		return fmt.Errorf("workload: %s: overestimation factor %v < 1", m.Name, m.Overest)
	case m.IATAvg <= 0 || m.IATMax < 1:
		return fmt.Errorf("workload: %s: interarrival parameters invalid", m.Name)
	case m.IATBurst <= 0 || m.IATBurst >= 1:
		// The open interval stats.NewBurstyIAT accepts.
		return fmt.Errorf("workload: %s: IATBurst %v outside (0,1)", m.Name, m.IATBurst)
	case m.LoadTarget < 0:
		return fmt.Errorf("workload: %s: LoadTarget %v < 0", m.Name, m.LoadTarget)
	}
	return nil
}

// generator bundles the fitted distributions of one model.
type generator struct {
	m     Model
	width widthSampler
	// Actual run times are a clamped log-normal; the pieces are kept
	// separate so runs can be generated from an explicit latent normal
	// deviate (for the width correlation).
	actLN        stats.LogNormal
	actLo, actHi float64
	iat          stats.Clamped
	// corr is the correlation of the latent normals behind width and
	// actual run time, calibrated to the model's LoadTarget.
	corr float64
	// overShift is the mean of the exponential part of the
	// overestimation factor F = 1 + Exp(overShift), calibrated so the
	// clamped mean estimate hits EstAvg.
	overShift float64
}

// widthSampler maps a latent standard normal deviate (plus an independent
// uniform used for power-of-two snapping) to a width. Routing widths
// through a latent normal lets the generator correlate width with run time
// while leaving both marginals unchanged.
type widthSampler interface {
	fromLatent(z, usnap float64) int
}

// sampleAct maps a latent normal deviate to an actual run time.
func (g *generator) sampleAct(z float64) float64 {
	return min(g.actHi, max(g.actLo, g.actLN.FromNormal(z)))
}

// actAt maps the width's latent normal zw and an independent normal z2 to
// an actual run time whose latent normal has correlation rho with zw.
func (g *generator) actAt(rho, zw, z2 float64) float64 {
	return g.sampleAct(rho*zw + math.Sqrt(1-rho*rho)*z2)
}

// sampleJob draws (width, actual run time) with the calibrated
// correlation from three independent primitives: the width's latent
// normal zw, the snapping uniform usnap, and an independent normal z2.
func (g *generator) sampleJob(zw, usnap, z2 float64) (width int, act float64) {
	return g.width.fromLatent(zw, usnap), g.actAt(g.corr, zw, z2)
}

// fits counts newGenerator runs that got past validation, so tests can
// prove the generator cache fits each model once.
var fits atomic.Int64

// newGenerator fits all distributions; it fails when a published mean is
// unattainable within its published bounds.
func (m Model) newGenerator() (*generator, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	fits.Add(1)
	g := &generator{m: m}

	var err error
	if m.WidthPow2Only {
		g.width, err = fitPow2(m.WidthMin, m.WidthMax, m.WidthAvg)
	} else {
		g.width, err = fitContinuousWidth(m)
	}
	if err != nil {
		return nil, fmt.Errorf("workload: %s: width: %w", m.Name, err)
	}

	actLo := float64(m.ActMin)
	if actLo < 1 {
		actLo = 1
	}
	act, err := stats.FitClampedLogNormal(m.ActAvg, m.ActSigma, actLo, float64(m.ActMax))
	if err != nil {
		return nil, fmt.Errorf("workload: %s: actual runtime: %w", m.Name, err)
	}
	g.actLN = act.D.(stats.LogNormal)
	g.actLo, g.actHi = act.Lo, act.Hi

	// Interarrival times: hyper-exponential clamped to the published
	// maximum. Clamping barely moves the mean because IATMax is hundreds
	// of times the mean.
	g.iat = stats.Clamped{
		D:  stats.NewBurstyIAT(m.IATAvg, m.IATBurst),
		Lo: 0, Hi: float64(m.IATMax),
	}

	if err := g.calibrateCorrelation(); err != nil {
		return nil, fmt.Errorf("workload: %s: load: %w", m.Name, err)
	}
	if err := g.calibrateOverestimation(); err != nil {
		return nil, fmt.Errorf("workload: %s: estimates: %w", m.Name, err)
	}
	return g, nil
}

// calibrateCorrelation solves for the latent width/run-time correlation so
// that the mean job area E[width x runtime] equals LoadTarget x machine x
// mean interarrival time — the offered load the paper's utilization at
// shrinking factor 1.0 implies. The mean area is monotone increasing in
// the correlation, so bisection over a fixed Monte Carlo sample converges.
//
// The widths do not depend on the correlation, so they are mapped once.
// Each evaluation maps the sample to its areas over the shard pool and
// then sums them sequentially in index order: the same float operations
// in the same order at any worker count, so the fitted correlation is
// bit-identical whatever GOMAXPROCS is.
func (g *generator) calibrateCorrelation() error {
	m := g.m
	if m.LoadTarget == 0 {
		g.corr = 0
		return nil
	}
	target := m.LoadTarget * float64(m.Machine) * m.IATAvg
	// Heavy-tailed run times make the mean area a high-variance
	// estimator; a large fixed sample keeps the calibration error well
	// below the paper-comparison tolerances.
	const n = 200000
	r := rng.New(0xc0a11a7e).Derive(hashName(m.Name))
	zw := make([]float64, n)
	widths := make([]float64, n)
	z2 := make([]float64, n)
	for i := 0; i < n; i++ {
		zw[i] = r.NormFloat64()
		widths[i] = float64(g.width.fromLatent(zw[i], r.Float64()))
		z2[i] = r.NormFloat64()
	}
	const chunk = 1 << 13
	workers := runtime.GOMAXPROCS(0)
	areas := make([]float64, n)
	meanArea := func(rho float64) float64 {
		shard.Run(workers, (n+chunk-1)/chunk, func(c int) error {
			for i := c * chunk; i < min((c+1)*chunk, n); i++ {
				areas[i] = widths[i] * g.actAt(rho, zw[i], z2[i])
			}
			return nil
		})
		var sum float64
		for _, a := range areas {
			sum += a
		}
		return sum / n
	}
	const bound = 0.999
	if meanArea(bound) < target {
		return fmt.Errorf("load target %v unattainable even at full correlation (max mean area %v, need %v)",
			m.LoadTarget, meanArea(bound), target)
	}
	if meanArea(-bound) > target {
		return fmt.Errorf("load target %v below the anti-correlated floor", m.LoadTarget)
	}
	lo, hi := -bound, bound
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if meanArea(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	g.corr = (lo + hi) / 2
	return nil
}

// calibrateOverestimation solves for the overestimation scale so that the
// *clamped* mean estimate hits the published EstAvg. A naive scale of
// Overest-1 undershoots badly on traces whose actual run times pile up
// near the estimate cap (the clamp eats the overestimation tail), so the
// scale is found by bisection over a fixed Monte Carlo sample drawn from a
// derived calibration stream — deterministic for a given model.
func (g *generator) calibrateOverestimation() error {
	m := g.m
	if m.Overest <= 1 {
		g.overShift = 0
		return nil
	}
	const n = 20000
	r := rng.New(0xca11b8a7e).Derive(hashName(m.Name))
	acts := make([]float64, n)
	exps := make([]float64, n)
	for i := 0; i < n; i++ {
		acts[i] = g.sampleAct(r.NormFloat64())
		exps[i] = r.ExpFloat64()
	}
	meanEst := func(shift float64) float64 {
		var sum float64
		for i := 0; i < n; i++ {
			est := acts[i] * (1 + shift*exps[i])
			if est < float64(m.EstMin) {
				est = float64(m.EstMin)
			}
			if est > float64(m.EstMax) {
				est = float64(m.EstMax)
			}
			sum += est
		}
		return sum / n
	}
	// meanEst is increasing in shift with limit EstMax > EstAvg, so a
	// solution exists whenever the unshifted mean lies below the target.
	lo, hi := 0.0, m.Overest-1
	for meanEst(hi) < m.EstAvg {
		hi *= 2
		if hi > 1e6 {
			return fmt.Errorf("cannot reach estimate mean %v", m.EstAvg)
		}
	}
	if meanEst(lo) > m.EstAvg {
		return fmt.Errorf("estimate mean %v below the no-overestimation floor %v",
			m.EstAvg, meanEst(lo))
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if meanEst(mid) < m.EstAvg {
			lo = mid
		} else {
			hi = mid
		}
	}
	g.overShift = (lo + hi) / 2
	return nil
}

// genCache memoises fitted generators per model value: the distribution
// fits and the two Monte Carlo calibrations are deterministic functions of
// the model, and generators are immutable after construction, so sharing
// them (also across goroutines) is safe. Each entry fits once: callers
// racing on the first use of a model wait for the one fit instead of
// each running their own.
var genCache sync.Map // Model -> *genEntry

type genEntry struct {
	once sync.Once
	g    *generator
	err  error
}

func (m Model) cachedGenerator() (*generator, error) {
	// Invalid models never enter the cache; NaN fields would make every
	// lookup miss.
	if err := m.Validate(); err != nil {
		return nil, err
	}
	e, ok := genCache.Load(m)
	if !ok {
		e, _ = genCache.LoadOrStore(m, &genEntry{})
	}
	entry := e.(*genEntry)
	entry.once.Do(func() { entry.g, entry.err = m.newGenerator() })
	return entry.g, entry.err
}

// Generate synthesises a job set of n jobs from the model using the given
// random stream. Output jobs are sorted by submission time with IDs in
// submission order, as the simulator requires.
func (m Model) Generate(n int, r *rng.Stream) (*job.Set, error) {
	g, err := m.cachedGenerator()
	if err != nil {
		return nil, err
	}
	set := &job.Set{
		Name:    m.Name,
		Machine: m.Machine,
		Jobs:    make([]*job.Job, n),
	}
	var clock int64
	for i := 0; i < n; i++ {
		if i > 0 {
			clock += int64(g.iat.Sample(r) + 0.5)
		}
		width, actF := g.sampleJob(r.NormFloat64(), r.Float64(), r.NormFloat64())
		act := int64(actF + 0.5)
		if act < 1 {
			act = 1
		}
		over := 1 + g.overShift*r.ExpFloat64()
		est := int64(float64(act)*over + 0.5)
		if est < m.EstMin {
			est = m.EstMin
		}
		if est > m.EstMax {
			est = m.EstMax
		}
		if est < act {
			est = act
		}
		set.Jobs[i] = &job.Job{
			ID:       job.ID(i + 1),
			Submit:   clock,
			Width:    width,
			Estimate: est,
			Runtime:  act,
		}
	}
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("workload: generated set invalid: %w", err)
	}
	return set, nil
}

// GenerateSets synthesises the paper's per-trace input: `sets` independent
// job sets of n jobs each. Set k is a pure function of (model name, seed,
// k) and independent of the other sets, so the sets are generated in
// parallel over the shard pool with output identical to a sequential loop.
func (m Model) GenerateSets(sets, n int, seed uint64) ([]*job.Set, error) {
	base := rng.New(seed)
	out := make([]*job.Set, sets)
	err := shard.Run(runtime.GOMAXPROCS(0), sets, func(k int) error {
		s, err := m.Generate(n, base.Derive(hashName(m.Name), uint64(k)))
		if err != nil {
			return err
		}
		s.Name = fmt.Sprintf("%s/set%02d", m.Name, k)
		out[k] = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// hashName folds a trace name into a derivation label.
func hashName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// --- width samplers ---

// contWidth samples a clamped log-normal width, optionally snapping a
// fraction of samples to the nearest power of two (production traces show
// strong power-of-two preferences).
type contWidth struct {
	ln       stats.LogNormal
	min, max int
	pow2Frac float64
}

func fitContinuousWidth(m Model) (widthSampler, error) {
	d, err := stats.FitClampedLogNormal(m.WidthAvg, m.WidthSigma,
		float64(m.WidthMin), float64(m.WidthMax))
	if err != nil {
		return nil, err
	}
	return &contWidth{ln: d.D.(stats.LogNormal), min: m.WidthMin, max: m.WidthMax,
		pow2Frac: m.WidthPow2Frac}, nil
}

func (w *contWidth) fromLatent(z, usnap float64) int {
	v := int(w.ln.FromNormal(z) + 0.5)
	if w.pow2Frac > 0 && usnap < w.pow2Frac {
		v = nearestPow2(v)
	}
	if v < w.min {
		v = w.min
	}
	if v > w.max {
		v = w.max
	}
	return v
}

// nearestPow2 rounds v to the nearest power of two in log space.
func nearestPow2(v int) int {
	if v <= 1 {
		return 1
	}
	exp := math.Log2(float64(v))
	return 1 << int(exp+0.5)
}

// pow2Width samples from the discrete power-of-two partition sizes of the
// LANL CM-5 with geometric weights q^k fitted to the published mean.
type pow2Width struct {
	sizes []int
	cum   []float64 // cumulative probabilities
}

func fitPow2(min, max int, target float64) (widthSampler, error) {
	var sizes []int
	for v := min; v <= max; v *= 2 {
		sizes = append(sizes, v)
	}
	if len(sizes) < 2 {
		return nil, fmt.Errorf("degenerate power-of-two range [%d,%d]", min, max)
	}
	mean := func(q float64) float64 {
		var num, den float64
		w := 1.0
		for _, v := range sizes {
			num += float64(v) * w
			den += w
			w *= q
		}
		return num / den
	}
	if target <= float64(sizes[0]) || target >= mean(1) {
		return nil, fmt.Errorf("target width mean %v unattainable over %v", target, sizes)
	}
	lo, hi := 1e-9, 1.0 // mean(q) is increasing in q
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if mean(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	q := (lo + hi) / 2
	p := &pow2Width{sizes: sizes, cum: make([]float64, len(sizes))}
	var den float64
	w := 1.0
	for range sizes {
		den += w
		w *= q
	}
	w = 1.0
	var acc float64
	for i := range sizes {
		acc += w / den
		p.cum[i] = acc
		w *= q
	}
	p.cum[len(p.cum)-1] = 1 // guard against rounding
	return p, nil
}

func (p *pow2Width) fromLatent(z, _ float64) int {
	u := stats.StdNormCDF(z)
	for i, c := range p.cum {
		if u < c {
			return p.sizes[i]
		}
	}
	return p.sizes[len(p.sizes)-1]
}
