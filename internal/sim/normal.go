package sim

import "math"

// Standard normal sampling: a 128-layer ziggurat (Marsaglia & Tsang,
// "The Ziggurat Method for Generating Random Variables", 2000).
//
// The density's right half is covered by 128 equal-area layers: layer
// 0 is the base strip plus the tail beyond zigR, layers 1..127 are
// rectangles stacked on it. One Uint64 drives a sample: bits 0–6 pick
// the layer i, bit 7 is the sign, bits 11–63 are a 53-bit magnitude j
// scaled to x = j·zigW[i]. The fields are disjoint, so the layer choice
// cannot correlate with the value (Doornik 2005 found that flaw in the
// 2000 paper's generator, which reused the low bits of j). When j <
// zigK[i], x < x_{i-1}: it falls in the part of layer i's rectangle
// that lies wholly under the density, and is returned as is. That fast
// path takes ~97% of samples; normSlow finishes the rest from the
// wedge or the tail.
//
// The sampler never calls math.Exp: on amd64 its implementation is
// chosen at run time by CPU feature (FMA), so an ulp of difference
// could flip a wedge decision between hosts. The wedge test compares
// logarithms instead, and most wedge heights are settled before that
// by linear bounds from the tables (wedgeSqueeze), with a margin that
// leaves every decision the log test's. The tables are committed
// literals, so the normal stream is a pure function of the seed on
// every host, with or without the AVX-512 fast path.

// zigR is the start of the tail: the right edge of layer 127.
const zigR = 3.442619855899

// NormFloat64 returns a standard normal sample. It is NormFill of one
// sample, so scalar and bulk calls interleave on one stream.
func (r *RNG) NormFloat64() float64 {
	var x [1]float64
	r.NormFill(x[:])
	return x[0]
}

// normAsm gates NormFill's AVX-512 fast-path kernel (normFast8). It is
// set once at init from HostCPU; tests flip it to pin the kernel
// against the scalar loop.
var normAsm = hostCPU.AVX512

// NormFill fills dst with standard normal samples. Sample k of the
// stream is the same value however the stream is sliced into NormFill
// and NormFloat64 calls: each sample consumes whole draws and carries
// no state into the next.
//
// With normAsm the kernel fills each run of fast-path samples and
// stops at the first draw that misses; the loop below takes that draw
// to normSlow. Draws are consumed in stream order either way, so the
// samples, the state and Draws() match the scalar loop bit for bit.
func (r *RNG) NormFill(dst []float64) {
	for k := 0; k < len(dst); k++ {
		if normAsm && len(dst)-k >= 8 {
			n := normFast8(&r.state, dst[k:])
			r.draws += uint64(n)
			if k += n; k == len(dst) {
				return
			}
		}
		u := r.Uint64()
		i := u & 0x7f
		if j := u >> 11; j < zigK[i] {
			dst[k] = signed(float64(int64(j))*zigW[i], u)
			continue
		}
		dst[k] = r.normSlow(u)
	}
}

// normSlow finishes a sample whose draw u missed its layer's fast
// path. A layer-0 miss samples the tail beyond zigR (Marsaglia 1964);
// a miss in layers 1..127 landed in the wedge between the rectangle
// core and the density, and is accepted when a uniform height in the
// layer lies under the density. A rejected wedge sample restarts from
// a fresh draw, which may take the fast path.
func (r *RNG) normSlow(u uint64) float64 {
	for {
		i, j := u&0x7f, u>>11
		x := float64(int64(j)) * zigW[i]
		if j < zigK[i] {
			return signed(x, u)
		}
		if i == 0 {
			for {
				t := -math.Log(r.float64Open()) / zigR
				if y := -math.Log(r.float64Open()); y+y >= t*t {
					return signed(zigR+t, u)
				}
			}
		}
		y := zigF[i] + r.Float64()*(zigF[i-1]-zigF[i])
		under, ok := wedgeSqueeze(i, x, y)
		if !ok {
			under = wedgeLogTest(x, y)
		}
		if under {
			return signed(x, u)
		}
		u = r.Uint64()
	}
}

// wedgeLogTest is the wedge's defining test: height y lies under the
// density at x, compared as logarithms (y < exp(-x²/2)).
func wedgeLogTest(x, y float64) bool {
	return math.Log(y) < -0.5*x*x
}

// wedgeMargin is how far a height must clear a linear bound before
// wedgeSqueeze decides it. math.Log and −0.5·x·x each round within an
// ulp, so the log test can disagree with the exact comparison
// y < f(x) only for |y − f(x)| under ~1e-15. The bounds carry the
// tables' error (zigF is within 1e-12 of f at the layer edges,
// TestWedgeSqueezeBounds) plus a few ulps of rounding. A margin of
// 1e-9 clears both by three orders of magnitude, so every verdict the
// squeeze reaches is the one the log test would reach.
const wedgeMargin = 1e-9

// wedgeSqueeze decides the wedge test for height y at x in layer
// i ≥ 1 from linear bounds on f(x) = exp(-x²/2), without math.Log or
// math.Exp; ok is false when the log test must decide. The layer spans
// [a, b] = [x_{i-1}, x_i] (a = 0 for the top layer), with f(a) =
// zigF[i-1] and f(b) = zigF[i] from the committed tables. Since
// f′(x) = −x·f(x), the endpoint tangents are f(a)(1 − a(x−a)) and
// f(b)(1 − b(x−b)). f is convex for x ≥ 1, where the chord lies above
// it and both tangents below, and concave for x ≤ 1, where the chord
// lies below it and both tangents above. The one layer straddling
// x = 1 has no such bounds and always takes the log test.
func wedgeSqueeze(i uint64, x, y float64) (under, ok bool) {
	a, b := 0.0, zigW[i]*(1<<53)
	if i > 1 {
		a = zigW[i-1] * (1 << 53)
	}
	if a < 1 && b > 1 {
		return false, false
	}
	fa, fb := zigF[i-1], zigF[i]
	chord := fa + (x-a)*(fb-fa)/(b-a)
	ta, tb := fa*(1-a*(x-a)), fb*(1-b*(x-b))
	lo, hi := max(ta, tb), chord
	if b <= 1 {
		lo, hi = chord, min(ta, tb)
	}
	switch {
	case y < lo-wedgeMargin:
		return true, true
	case y > hi+wedgeMargin:
		return false, true
	}
	return false, false
}

// signed applies u's sign bit (bit 7) to the magnitude x.
func signed(x float64, u uint64) float64 {
	return math.Float64frombits(math.Float64bits(x) | (u&0x80)<<56)
}

// float64Open returns a uniform float in (0, 1], safe for math.Log.
func (r *RNG) float64Open() float64 {
	return float64(r.Uint64()>>11+1) / (1 << 53)
}

// Ziggurat tables for 2^53-scaled magnitudes, from the Marsaglia–Tsang
// recurrence with r = zigR and layer area v = 9.91256303526217e-3
// (TestZigguratTables re-derives them). Layer i's rectangle spans
// [0, x_i] × [f(x_i), f(x_{i-1})] with f(x) = exp(-x²/2):
//   - zigW[i] = x_i / 2^53 (zigW[0] = v/f(r) / 2^53, the base strip);
//   - zigK[i] = floor(2^53 · x_{i-1}/x_i), the fast-path bound
//     (zigK[0] = floor(2^53 · r·f(r)/v); zigK[1] = 0: the top layer is
//     all wedge);
//   - zigF[i] = f(x_i) (zigF[0] = 1).

var zigK = [128]uint64{
	0x001dab48848d3c16, 0x0000000000000000, 0x001803c6d4f93aa2, 0x001b3911e9b80501,
	0x001c96d1a883d2e5, 0x001d58014742e530, 0x001dd2487adcb4d6, 0x001e26896f5fbf3f,
	0x001e641170f50ca8, 0x001e92f39746c221, 0x001eb7d8a7ccd9ec, 0x001ed5a0a98bc7c9,
	0x001eee2a3186b513, 0x001f02b9c88c734f, 0x001f143339d7d787, 0x001f233b16d764d8,
	0x001f304b35b5d590, 0x001f3bbfb4b67d60, 0x001f45df82cd25b8, 0x001f4ee220c3043d,
	0x001f56f39b2b0509, 0x001f5e37591f6ccf, 0x001f64ca218dbb21, 0x001f6ac395f78bd5,
	0x001f70374c1451aa, 0x001f7535a22e3d3d, 0x001f79cc61506b24, 0x001f7e073a948fe0,
	0x001f81f028fc2ade, 0x001f858fbe99f8ad, 0x001f88ed61f8e777, 0x001f8c0f7f61e36d,
	0x001f8efbb0b5013d, 0x001f91b6dddf8427, 0x001f9445577b49f4, 0x001f96aaecc7e5e7,
	0x001f98eafde8e73b, 0x001f9b088b20ff65, 0x001f9d06419a6a63, 0x001f9ee6862ee1b5,
	0x001fa0ab7e8a2982, 0x001fa25718f03b33, 0x001fa3eb12e1f177, 0x001fa568fecff9b7,
	0x001fa6d24902fe34, 0x001fa8283bd8f44d, 0x001fa96c0371d81a, 0x001faa9eb0e19351,
	0x001fabc13cf91f8f, 0x001facd48ab5f4e1, 0x001fadd96964622e, 0x001faed0967f6925,
	0x001fafbabf570e42, 0x001fb0988284ac3d, 0x001fb16a7133b4f5, 0x001fb23110445454,
	0x001fb2ecd94c9ba2, 0x001fb39e3b7c2e55, 0x001fb4459c65d655, 0x001fb4e358b1e8cf,
	0x001fb577c4bbfa38, 0x001fb6032d1e0430, 0x001fb685d72ad163, 0x001fb70001593e7b,
	0x001fb771e3a1a364, 0x001fb7dbafce8335, 0x001fb83d91c1719a, 0x001fb897afacf29c,
	0x001fb8ea2a43f27a, 0x001fb9351cdf4f98, 0x001fb9789d99cec9, 0x001fb9b4bd62b198,
	0x001fb9e9880706ab, 0x001fba170431ac58, 0x001fba3d3361dd1b, 0x001fba5c11d7fba4,
	0x001fba7396782fc8, 0x001fba83b2a23e8e, 0x001fba8c51fddb9d, 0x001fba8d5a3a81cb,
	0x001fba86aac1a8c1, 0x001fba781c59edc6, 0x001fba6180b97b60, 0x001fba42a205a48c,
	0x001fba1b423d4107, 0x001fb9eb1a8ade0c, 0x001fb9b1da7b43fc, 0x001fb96f271420e9,
	0x001fb92299c5d1df, 0x001fb8cbbf324034, 0x001fb86a15c1886f, 0x001fb7fd0bfb9735,
	0x001fb783fe9c00d0, 0x001fb6fe3652f8b4, 0x001fb66ae52354db, 0x001fb5c92349c858,
	0x001fb517eb94bd58, 0x001fb456170e2019, 0x001fb38257d095ff, 0x001fb29b32d77103,
	0x001fb19ef88b6409, 0x001fb08bbbbc73bc, 0x001faf5f46a24900, 0x001fae170d5cadc4,
	0x001facb01d4366f8, 0x001fab27081a26dc, 0x001fa977c9ec13d6, 0x001fa79da7e004a6,
	0x001fa59305b35722, 0x001fa3512e9cb952, 0x001fa0d00cfbb6cd, 0x001f9e05ca2efdc3,
	0x001f9ae64ccb1f64, 0x001f97628687c107, 0x001f93677b627e76, 0x001f8edcde8cde13,
	0x001f89a30bcaa7bb, 0x001f838ffd4ec0ea, 0x001f7c6a977e305f, 0x001f73e31c89895d,
	0x001f69868793c530, 0x001f5ca83ef26e1f, 0x001f4c3825de9f38, 0x001f366d2afaee48,
	0x001f1803c6a0781b, 0x001eea42f70ceeac, 0x001e9c885d9a666b, 0x001df5993967d2a6,
}

var zigW = [128]float64{
	4.1223538435525847e-16, 3.023368942022837e-17, 4.028682177825965e-17,
	4.7356339555928096e-17, 5.300624797940183e-17, 5.780443221437625e-17,
	6.202729201467484e-17, 6.583211114812799e-17, 6.931772903851466e-17,
	7.255070308298219e-17, 7.557820132721455e-17, 7.843499309328301e-17,
	8.11475232168053e-17, 8.373642495552203e-17, 8.621814239159835e-17,
	8.86060181497566e-17, 9.091104610229937e-17, 9.314240648734263e-17,
	9.530785529607964e-17, 9.741401342388226e-17, 9.946658525505195e-17,
	1.0147052653930785e-16, 1.0343017515958544e-16, 1.0534935429699119e-16,
	1.0723145476023125e-16, 1.0907950137755436e-16, 1.1089620704984661e-16,
	1.1268401714518464e-16, 1.144451462562694e-16, 1.1618160886284683e-16,
	1.1789524508807575e-16, 1.1958774247454664e-16, 1.2126065450726875e-16,
	1.2291541645992717e-16, 1.2455335902467511e-16, 1.2617572009578464e-16,
	1.277836550071927e-16, 1.2937824546863112e-16, 1.3096050740113297e-16,
	1.3253139783765717e-16, 1.3409182102641066e-16, 1.3564263385168424e-16,
	1.3718465066851612e-16, 1.387186476323818e-16, 1.4024536659269728e-16,
	1.417655186086891e-16, 1.4327978713770626e-16, 1.4478883093900398e-16,
	1.4629328673014956e-16, 1.477937716282825e-16, 1.492908854043347e-16,
	1.507852125748491e-16, 1.5227732435311638e-16, 1.5376778047889188e-16,
	1.5525713094388714e-16, 1.5674591762849324e-16, 1.582346758637398e-16,
	1.5972393593128443e-16, 1.6121422451323132e-16, 1.6270606610277023e-16,
	1.6419998438598473e-16, 1.6569650360469024e-16, 1.6719614990980994e-16,
	1.6869945271457575e-16, 1.7020694605674384e-16, 1.7171916997903551e-16,
	1.7323667193715685e-16, 1.747600082450119e-16, 1.7628974556711264e-16,
	1.778264624687085e-16, 1.793707510348198e-16, 1.8092321857017642e-16,
	1.824844893930498e-16, 1.8405520673714639e-16, 1.8563603477712586e-16,
	1.8722766079494947e-16, 1.8883079750619168e-16, 1.9044618556770172e-16,
	1.920745962906401e-16, 1.9371683458599968e-16, 1.9537374217333186e-16,
	1.9704620108763274e-16, 1.9873513752431497e-16, 2.0044152606804347e-16,
	2.0216639435811926e-16, 2.039108282512687e-16, 2.0567597755239874e-16,
	2.074630623954397e-16, 2.0927338037021837e-16, 2.1110831450789637e-16,
	2.129693422575085e-16, 2.1485804561034692e-16, 2.1677612255838826e-16,
	2.1872540010895742e-16, 2.2070784912205043e-16, 2.2272560129138165e-16,
	2.2478096865812098e-16, 2.268764661311837e-16, 2.290148375947774e-16,
	2.311990863193022e-16, 2.3343251056453945e-16, 2.357187454864436e-16,
	2.380618127473694e-16, 2.4046617960725957e-16, 2.429368297725053e-16,
	2.4547934894577666e-16, 2.4810002892017063e-16, 2.508059952909479e-16,
	2.536053655607908e-16, 2.5650744680513904e-16, 2.5952298547285277e-16,
	2.626644868406068e-16, 2.65946628942422e-16, 2.6938680680974045e-16,
	2.730058598534402e-16, 2.768290621285998e-16, 2.8088749908104254e-16,
	2.8522002825381174e-16, 2.898761506866351e-16, 2.949203560544244e-16,
	3.004389596130496e-16, 3.0655138121140367e-16, 3.1342987655823667e-16,
	3.213367357781137e-16, 3.307017163054238e-16, 3.4230716685810995e-16,
	3.578343160205601e-16, 3.8220758290508086e-16,
}

var zigF = [128]float64{
	1, 0.9635996931270896, 0.9362826816850625,
	0.9130436479717428, 0.8922816507840284, 0.8732430489100717,
	0.8555006078694526, 0.8387836052959915, 0.8229072113814108,
	0.8077382946829622, 0.7931770117713067, 0.7791460859296893,
	0.765584173897706, 0.7524415591746129, 0.7396772436726488,
	0.7272569183441863, 0.7151515074105, 0.7033360990161595,
	0.6917891434366764, 0.6804918409973354, 0.6694276673488917,
	0.6585820000500895, 0.647941821110224, 0.6374954773350439,
	0.6272324852499288, 0.6171433708188824, 0.6072195366251217,
	0.5974531509445181, 0.5878370544347078, 0.5783646811197644,
	0.569029991067952, 0.5598274127040879, 0.5507517931146054,
	0.5417983550254263, 0.5329626593838369, 0.5242405726729849,
	0.5156282382440026, 0.5071220510755696, 0.49871863547098017,
	0.4904148252838448, 0.4822076463294858, 0.47409430069301745,
	0.4660721526894566, 0.4581387162678725, 0.4502916436820397,
	0.44252871527546894, 0.4348478302499913, 0.42724699830499646,
	0.41972433204957477, 0.4122780401026614, 0.40490642080722333,
	0.39760785649387365, 0.39038080823731486, 0.38322381105590136,
	0.3761354695105628, 0.36911445366447243, 0.3621594953693178,
	0.35526938484791737, 0.3484429675463268, 0.3416791412315506,
	0.33497685331358923, 0.3283350983728503, 0.3217529158759849,
	0.31522938806501094, 0.3087636380061812, 0.30235482778648354,
	0.296002156846933, 0.28970486044295984, 0.283462208223233,
	0.2772735029191881, 0.2711380791383846, 0.2650553022555892,
	0.25902456739620483, 0.25304529850732577, 0.2471169475123214,
	0.24123899354543982, 0.23541094226347908, 0.22963232523211613,
	0.22390269938500842, 0.21822164655430543, 0.21258877307173027,
	0.2070037094399266, 0.20146611007431373, 0.1959756531162778,
	0.19053204031913723, 0.18513499700899227, 0.17978427212329554,
	0.17447963833078958, 0.169220892237365, 0.16400785468342038,
	0.1588403711394793, 0.15371831220818166, 0.14864157424234226,
	0.14361008009062776, 0.1386237799845946, 0.13368265258343937,
	0.1287867061959432, 0.12393598020286782, 0.11913054670765083,
	0.11437051244886601, 0.10965602101484027, 0.10498725540942132,
	0.10036444102865587, 0.09578784912173144, 0.09125780082683026,
	0.08677467189478019, 0.08233889824223567, 0.0779509825139734,
	0.0736115018841134, 0.06932111739357791, 0.06508058521306807,
	0.060890770348040406, 0.05675266348104985, 0.052667401903051005,
	0.048636295859867805, 0.044660862200491425, 0.040742868074444175,
	0.0368843887866562, 0.03308788614622575, 0.02935631744000685,
	0.02569329193593427, 0.022103304615927098, 0.018592102737011288,
	0.015167298010546568, 0.011839478657884862, 0.008624484412859885,
	0.005548995220771345, 0.002669629083880923,
}
