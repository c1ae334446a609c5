package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"testing"
)

// normalSeeds are the seeds the distribution tests sample at.
var normalSeeds = []int64{42, 7919, 1}

// TestNormFillDistribution checks 4 Mi samples per seed against N(0,1):
// the first four moments within five standard errors, and the
// Kolmogorov–Smirnov distance to Φ(x) = erfc(-x/√2)/2 below its 1%
// critical value 1.628/√n.
func TestNormFillDistribution(t *testing.T) {
	const n = 4 << 20
	for _, seed := range normalSeeds {
		xs := make([]float64, n)
		NewRNG(seed).NormFill(xs)
		var m1, m2, m3, m4 float64
		for _, x := range xs {
			x2 := x * x
			m1 += x
			m2 += x2
			m3 += x2 * x
			m4 += x2 * x2
		}
		mean := m1 / n
		// Raw moments of N(0,1) are 0, 1, 0, 3; their standard errors
		// over n samples are √(1/n), √(2/n), √(15/n) and √(96/n).
		for _, c := range []struct {
			name      string
			got, want float64
			se        float64
		}{
			{"mean", mean, 0, math.Sqrt(1.0 / n)},
			{"variance", m2/n - mean*mean, 1, math.Sqrt(2.0 / n)},
			{"E[x³]", m3 / n, 0, math.Sqrt(15.0 / n)},
			{"E[x⁴]", m4 / n, 3, math.Sqrt(96.0 / n)},
		} {
			if math.Abs(c.got-c.want) > 5*c.se {
				t.Errorf("seed %d: %s = %.6f, want %v ± %.6f", seed, c.name, c.got, c.want, 5*c.se)
			}
		}
		sort.Float64s(xs)
		d := 0.0
		for i, x := range xs {
			cdf := 0.5 * math.Erfc(-x/math.Sqrt2)
			d = math.Max(d, math.Max(float64(i+1)/n-cdf, cdf-float64(i)/n))
		}
		if crit := 1.628 / math.Sqrt(n); d > crit {
			t.Errorf("seed %d: KS distance %.6f exceeds the 1%% critical value %.6f", seed, d, crit)
		} else {
			t.Logf("seed %d: KS distance %.6f (1%% critical value %.6f)", seed, d, crit)
		}
	}
}

// TestNormFillTailAndWedge exercises both slow paths and checks the
// mass beyond zigR. Only the tail path returns |x| > zigR (every layer's
// rectangle ends at or before it), and a sample that costs exactly two
// draws and lands inside zigR is a first-try wedge acceptance (one
// layer draw, one height draw).
func TestNormFillTailAndWedge(t *testing.T) {
	const n = 4 << 20
	wantTail := float64(n) * math.Erfc(zigR/math.Sqrt2)
	// A sample stays on the fast path with probability mean(zigK)/2^53
	// and then costs exactly one draw; every slow path costs more.
	pFast := 0.0
	for _, k := range zigK {
		pFast += float64(k) / (1 << 53) / 128
	}
	for _, seed := range normalSeeds {
		r := NewRNG(seed)
		tail, wedge, fast := 0, 0, 0
		for i := 0; i < n; i++ {
			before := r.Draws()
			x := r.NormFloat64()
			switch draws := r.Draws() - before; {
			case draws == 1:
				fast++
			case math.Abs(x) > zigR:
				tail++
			case draws == 2:
				wedge++
			}
		}
		if wedge == 0 {
			t.Errorf("seed %d: no wedge acceptance in %d samples", seed, n)
		}
		// Both counts are binomial; allow five standard deviations.
		if got := float64(tail); math.Abs(got-wantTail) > 5*math.Sqrt(wantTail) {
			t.Errorf("seed %d: %d samples beyond ±%v, want %.0f ± %.0f", seed, tail, zigR, wantTail, 5*math.Sqrt(wantTail))
		}
		wantFast, sd := n*pFast, math.Sqrt(n*pFast*(1-pFast))
		if got := float64(fast); math.Abs(got-wantFast) > 5*sd {
			t.Errorf("seed %d: %d fast-path samples, want %.0f ± %.0f", seed, fast, wantFast, 5*sd)
		}
	}
}

// TestZigguratTables re-derives the committed tables from the
// Marsaglia–Tsang recurrence — the literals are what it gives, to
// rounding — and checks the layer geometry the sampler relies on.
func TestZigguratTables(t *testing.T) {
	const m = 1 << 53
	const v = 9.91256303526217e-3
	var k [128]float64
	var w, f [128]float64
	x := zigR
	q := v / math.Exp(-0.5*x*x)
	k[0], w[0], f[0] = x/q*m, q/m, 1
	w[127], f[127] = x/m, math.Exp(-0.5*x*x)
	for i := 126; i >= 1; i-- {
		prev := x
		x = math.Sqrt(-2 * math.Log(v/x+math.Exp(-0.5*x*x)))
		k[i+1], w[i], f[i] = x/prev*m, x/m, math.Exp(-0.5*x*x)
	}
	near := func(got, want float64) bool {
		return math.Abs(got-want) <= 1e-14*math.Abs(want)
	}
	for i := 0; i < 128; i++ {
		if !near(float64(zigK[i]), math.Floor(k[i])) {
			t.Errorf("zigK[%d] = %#x, recurrence gives %.17g", i, zigK[i], k[i])
		}
		if !near(zigW[i], w[i]) {
			t.Errorf("zigW[%d] = %v, recurrence gives %v", i, zigW[i], w[i])
		}
		if !near(zigF[i], f[i]) {
			t.Errorf("zigF[%d] = %v, recurrence gives %v", i, zigF[i], f[i])
		}
	}
	if zigK[1] != 0 {
		t.Errorf("zigK[1] = %#x, want 0 (the top layer is all wedge)", zigK[1])
	}
	// The layer edges x_i grow and the densities f(x_i) fall with i.
	// zigK itself is not monotone (the core ratio x_{i-1}/x_i peaks
	// mid-stack), so it is checked for soundness instead: the largest
	// fast-path magnitude of every layer stays inside the layer above
	// (inside zigR for the base strip).
	for i := 2; i < 128; i++ {
		if zigW[i] <= zigW[i-1] || zigF[i] >= zigF[i-1] {
			t.Errorf("layer %d: edge or density not monotone", i)
		}
	}
	for i := 0; i < 128; i++ {
		if zigK[i] == 0 {
			continue
		}
		bound := zigR
		if i > 0 {
			bound = zigW[i-1] * m
		}
		if x := float64(zigK[i]-1) * zigW[i]; zigK[i] >= m || x > bound {
			t.Errorf("layer %d: fast path reaches %v beyond its core edge %v", i, x, bound)
		}
	}
}

// TestNormFillPinnedStream pins the normal stream itself: the sha256
// of the first 4096 samples at seed 42 as little-endian float64 bits.
// Any change to the sampler or its tables fails here first; such a
// change is stream-changing and regenerates every golden with it.
func TestNormFillPinnedStream(t *testing.T) {
	xs := make([]float64, 4096)
	NewRNG(42).NormFill(xs)
	h := sha256.New()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	const want = "daff477ac216182026f370649531f4cde065795c83270522f30f226c4336f49c"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("normal stream at seed 42 changed: sha256 %s, want %s", got, want)
	}
}

// normFillPath draws pre words at seed, then fills n normal samples
// with the AVX-512 kernel switched on or off, and returns the samples
// and the generator's final state.
func normFillPath(kernel bool, seed int64, pre, n int) ([]float64, RNG) {
	saved := normAsm
	defer func() { normAsm = saved }()
	normAsm = kernel
	r := NewRNG(seed)
	for i := 0; i < pre; i++ {
		r.Uint64()
	}
	dst := make([]float64, n)
	r.NormFill(dst)
	return dst, *r
}

// checkNormFillKernel compares the kernel path with the scalar loop for
// one (seed, pre, n): every sample's bits, the final state and Draws().
func checkNormFillKernel(t testing.TB, seed int64, pre, n int) {
	t.Helper()
	got, gr := normFillPath(true, seed, pre, n)
	want, wr := normFillPath(false, seed, pre, n)
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("seed %d, pre %d, n %d: sample %d = %v, scalar loop gives %v", seed, pre, n, k, got[k], want[k])
		}
	}
	if gr.state != wr.state || gr.Draws() != wr.Draws() {
		t.Fatalf("seed %d, pre %d, n %d: kernel ends at state %#x after %d draws, scalar loop at %#x after %d",
			seed, pre, n, gr.state, gr.Draws(), wr.state, wr.Draws())
	}
}

// requireNormKernel skips a kernel test on hosts without AVX-512, where
// the scalar loop is NormFill's only path.
func requireNormKernel(t testing.TB) {
	t.Helper()
	if !hostCPU.AVX512 {
		t.Skip("host has no AVX-512F+DQ: NormFill runs the scalar loop only")
	}
}

// TestNormFillKernelMatchesScalar pins the AVX-512 fast path to the
// scalar loop bit for bit. The lengths straddle the 8-lane block (a
// remainder below 8 runs scalar) and reach chunks where many blocks
// end in a miss handed to normSlow.
func TestNormFillKernelMatchesScalar(t *testing.T) {
	requireNormKernel(t)
	lengths := []int{0, 1, 7, 8, 9, 15, 16, 17, 255, 256, 257, 4096, 10007}
	for seed := int64(0); seed < 64; seed++ {
		for _, n := range lengths {
			checkNormFillKernel(t, seed, int(seed%9), n)
		}
	}
}

// FuzzNormFillEquivalence drives the kernel and the scalar loop from a
// random seed, after a random number of pre-drawn words, for a random
// length up to 10k samples, and requires identical bits, state and
// Draws().
func FuzzNormFillEquivalence(f *testing.F) {
	f.Add(int64(42), uint16(0), uint16(4096))
	f.Add(int64(7919), uint16(3), uint16(257))
	f.Add(int64(1), uint16(1), uint16(9))
	f.Add(int64(-5), uint16(500), uint16(10000))
	f.Fuzz(func(t *testing.T, seed int64, pre, n uint16) {
		requireNormKernel(t)
		checkNormFillKernel(t, seed, int(pre%1024), int(n)%10001)
	})
}

// sinkNorm keeps the allocation test's samples live.
var sinkNorm float64

// TestNormFillStackChunkNoAlloc pins NormFill into a stack array at
// zero allocations, the shape of the UWB channel's noise loop. The
// kernel's dst must not escape (//go:noescape); if it did, every
// caller's stack chunk would move to the heap.
func TestNormFillStackChunkNoAlloc(t *testing.T) {
	r := NewRNG(42)
	allocs := testing.AllocsPerRun(100, func() {
		var chunk [256]float64
		r.NormFill(chunk[:])
		sinkNorm += chunk[255]
	})
	if allocs != 0 {
		t.Errorf("NormFill into a stack chunk allocates %v times per call, want 0", allocs)
	}
}

// BenchmarkRNGNormFill measures bulk sampling in 4096-sample chunks,
// the channel-noise shape.
func BenchmarkRNGNormFill(b *testing.B) {
	r := NewRNG(42)
	buf := make([]float64, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.NormFill(buf)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(buf)), "ns/sample")
}

// wedgeLayerEdges returns layer i's x range [a, b] as wedgeSqueeze
// sees it.
func wedgeLayerEdges(i int) (a, b float64) {
	b = zigW[i] * (1 << 53)
	if i > 1 {
		a = zigW[i-1] * (1 << 53)
	}
	return a, b
}

// TestWedgeSqueezeBounds checks the geometry behind wedgeSqueeze with
// math.Exp, which the sampler itself never calls. The committed
// densities match f at the committed edges to far inside wedgeMargin;
// exactly one layer straddles x = 1; and on a grid over every other
// layer, heights just past the density on either side are never
// decided against the log test, while heights outside the layer's
// height range are decided without it.
func TestWedgeSqueezeBounds(t *testing.T) {
	f := func(x float64) float64 { return math.Exp(-0.5 * x * x) }
	straddle := 0
	for i := 1; i < 128; i++ {
		a, b := wedgeLayerEdges(i)
		if d := math.Abs(zigF[i] - f(b)); d > 1e-12 {
			t.Errorf("zigF[%d] is %g from f(x_%d), beyond 1e-12", i, d, i)
		}
		if a < 1 && b > 1 {
			straddle++
			continue
		}
		for s := 0; s <= 64; s++ {
			x := a + (b-a)*float64(s)/64
			fx := f(x)
			for _, y := range []float64{fx * (1 - 1e-12), fx, fx * (1 + 1e-12)} {
				if under, ok := wedgeSqueeze(uint64(i), x, y); ok && under != wedgeLogTest(x, y) {
					t.Fatalf("layer %d, x = %v: squeeze says %v at height %v next to f(x) = %v", i, x, under, y, fx)
				}
			}
			// Heights just outside the layer's range [f(b), f(a)] are
			// decided outright: both lower bounds stay at or above
			// f(b), both upper bounds at or below f(a).
			if under, ok := wedgeSqueeze(uint64(i), x, zigF[i]*(1-1e-3)); !ok || !under {
				t.Fatalf("layer %d, x = %v: a height under the layer's floor gives (%v, %v), want an accept", i, x, under, ok)
			}
			if under, ok := wedgeSqueeze(uint64(i), x, zigF[i-1]*(1+1e-3)); !ok || under {
				t.Fatalf("layer %d, x = %v: a height over the layer's ceiling gives (%v, %v), want a reject", i, x, under, ok)
			}
		}
	}
	if straddle != 1 {
		t.Errorf("%d layers straddle x = 1, want exactly 1", straddle)
	}
}

// TestWedgeSqueezeMatchesLogTest replays the sampler's wedge decisions
// over 200 Mi draws at each of two seeds: every layer-1..127 miss gets
// a height as in normSlow, and every verdict wedgeSqueeze reaches must
// equal the log test's. It logs the share of wedge decisions still left
// to the log test.
func TestWedgeSqueezeMatchesLogTest(t *testing.T) {
	const n = 200 << 20
	for _, seed := range []int64{42, 7919} {
		r := NewRNG(seed)
		wedge, logged := 0, 0
		for k := 0; k < n; k++ {
			u := r.Uint64()
			i, j := u&0x7f, u>>11
			if i == 0 || j < zigK[i] {
				continue
			}
			x := float64(int64(j)) * zigW[i]
			y := zigF[i] + r.Float64()*(zigF[i-1]-zigF[i])
			wedge++
			under, ok := wedgeSqueeze(i, x, y)
			if !ok {
				logged++
				continue
			}
			if want := wedgeLogTest(x, y); under != want {
				t.Fatalf("seed %d, layer %d, x = %v, height %v: squeeze says %v, log test %v", seed, i, x, y, under, want)
			}
		}
		t.Logf("seed %d: %d wedge decisions, %.2f%% left to the log test", seed, wedge, 100*float64(logged)/float64(wedge))
	}
}
