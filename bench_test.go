// Package autosec's root benchmark harness: one benchmark per paper
// artefact (every figure and table), as indexed in DESIGN.md. Each
// benchmark regenerates the corresponding experiment end-to-end, so
// `go test -bench=. -benchmem` both re-produces the paper's results and
// reports the cost of doing so. The per-iteration output is recorded in
// EXPERIMENTS.md; use `cmd/avsec run <id>` to see any report.
package autosec

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"autosec/internal/campaign"
	"autosec/internal/config"
	"autosec/internal/core"
	"autosec/internal/fleet"
	"autosec/internal/ivn"
	"autosec/internal/scenario"
	"autosec/internal/secchan"
	"autosec/internal/secchan/suites"
	"autosec/internal/sensor"
	"autosec/internal/server"
	"autosec/internal/sim"
	"autosec/internal/uwb"
	"autosec/internal/vcrypto"
	"autosec/internal/world"
)

// benchPool is the replicate budget of benchExperiment's runs.
var benchPool = sim.NewWorkerPool(runtime.GOMAXPROCS(0))

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := core.RunExperimentResult(id, 42, core.RunOptions{Pool: benchPool})
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Report) == 0 {
			b.Fatal("empty report")
		}
	}
}

// --- paper artefacts ---

func BenchmarkFig1LayeredModel(b *testing.B)     { benchExperiment(b, "fig1") }
func BenchmarkFig2UWBRanging(b *testing.B)       { benchExperiment(b, "fig2") }
func BenchmarkFig3ZonalIVN(b *testing.B)         { benchExperiment(b, "fig3") }
func BenchmarkTable1ProtocolMatrix(b *testing.B) { benchExperiment(b, "tab1") }
func BenchmarkFig4ScenarioS1(b *testing.B)       { benchExperiment(b, "fig4") }
func BenchmarkFig5ScenarioS2(b *testing.B)       { benchExperiment(b, "fig5") }
func BenchmarkFig6ScenarioS3(b *testing.B)       { benchExperiment(b, "fig6") }
func BenchmarkFig7SDVTrust(b *testing.B)         { benchExperiment(b, "fig7") }
func BenchmarkFig8KillChain(b *testing.B)        { benchExperiment(b, "fig8") }
func BenchmarkFig9MaaSSoS(b *testing.B)          { benchExperiment(b, "fig9") }

func BenchmarkCollisionAvoidance(b *testing.B) { benchExperiment(b, "exp-ca") }
func BenchmarkCollabPerception(b *testing.B)   { benchExperiment(b, "exp-collab") }
func BenchmarkIntrusionDetection(b *testing.B) { benchExperiment(b, "exp-ids") }
func BenchmarkAccessControl(b *testing.B)      { benchExperiment(b, "exp-access") }
func BenchmarkPTPSec(b *testing.B)             { benchExperiment(b, "exp-ptp") }
func BenchmarkV2XPseudonyms(b *testing.B)      { benchExperiment(b, "exp-v2x") }
func BenchmarkOTAPipeline(b *testing.B)        { benchExperiment(b, "exp-ota") }
func BenchmarkTARAWorksheet(b *testing.B)      { benchExperiment(b, "exp-tara") }
func BenchmarkFullVehicle(b *testing.B)        { benchExperiment(b, "exp-vehicle") }
func BenchmarkZCCompromise(b *testing.B)       { benchExperiment(b, "exp-zc") }
func BenchmarkStealthExfil(b *testing.B)       { benchExperiment(b, "exp-stealth") }

// --- ablations (DESIGN.md §4) ---

func BenchmarkAblationMACTruncation(b *testing.B)   { benchExperiment(b, "ablate-mac") }
func BenchmarkAblationFreshnessWindow(b *testing.B) { benchExperiment(b, "ablate-fv") }
func BenchmarkAblationSTSLength(b *testing.B)       { benchExperiment(b, "ablate-sts") }
func BenchmarkAblationCANALSegment(b *testing.B)    { benchExperiment(b, "ablate-canal") }
func BenchmarkAblationRedundancy(b *testing.B)      { benchExperiment(b, "ablate-k") }
func BenchmarkAblationIDSThreshold(b *testing.B)    { benchExperiment(b, "ablate-ids") }
func BenchmarkAblationScaling(b *testing.B)         { benchExperiment(b, "ablate-scale") }

// --- campaign runner (multi-seed grid through the worker pool) ---

// BenchmarkCampaignAll runs every experiment at 2 seeds through the
// campaign pool, once with a single worker (the old serial loop) and
// once at GOMAXPROCS, so the pool's speedup over serial execution is
// tracked in the perf trajectory. Each jobs level shares one
// jobs-sized worker pool between cell-level parallelism and
// intra-experiment replicate fan-out, and cells run through the typed
// runner with metric capture, exactly as `avsec all -jobs K` does: at
// jobs=1 everything is strictly serial, and at GOMAXPROCS the
// straggler cells absorb the idle workers' slots. Run with -benchmem
// to also see the aggregation overhead.
func BenchmarkCampaignAll(b *testing.B) {
	var ids []string
	for _, e := range core.Experiments() {
		ids = append(ids, e.ID)
	}
	seeds := campaign.Seeds(42, 2)
	for _, jobs := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pool := sim.NewWorkerPool(jobs)
				res, err := campaign.Run(campaign.Spec{
					IDs: ids, Seeds: seeds, Pool: pool,
					RunTyped: func(id string, seed int64) (string, []sim.Metric, error) {
						r, err := core.RunExperimentResult(id, seed, core.RunOptions{Pool: pool})
						if err != nil {
							return "", nil, err
						}
						return r.Report, r.Metrics, nil
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				if out := res.RenderSummary(); len(out) == 0 {
					b.Fatal("empty campaign summary")
				}
			}
		})
	}
}

// BenchmarkCorpusCampaign runs the scenario corpus (scenarios/) at 2
// seeds through the campaign pool with a single worker, as
// `avsec campaign -corpus -seeds 2 -jobs 1` does. Its cells are mostly
// the scenario traffic interpreter, the secure channels and the IDS tap
// chain, so allocs/op tracks the interpreter's per-frame allocations.
func BenchmarkCorpusCampaign(b *testing.B) {
	ns, err := scenario.LoadNamespace("scenarios")
	if err != nil {
		b.Fatal(err)
	}
	ids, err := ns.Select(nil, true)
	if err != nil {
		b.Fatal(err)
	}
	seeds := campaign.Seeds(42, 2)
	b.Run("jobs=1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pool := sim.NewWorkerPool(1)
			res, err := campaign.Run(campaign.Spec{
				IDs: ids, Seeds: seeds, Pool: pool,
				RunTyped: ns.Typed(pool), CostHint: ns.Cost,
			})
			if err != nil {
				b.Fatal(err)
			}
			if out := res.RenderSummary(); len(out) == 0 {
				b.Fatal("empty campaign summary")
			}
		}
	})
}

// --- fleet coordinator (internal/fleet, docs/FLEET.md) ---

// newStubFleetWorker serves the daemon wire protocol with a fixed
// per-cell service latency and no real compute: a stand-in for a
// remote avsecd on its own machine. On a many-core host the real
// daemon overlaps within itself; the stub instead makes each worker a
// serial perCell-latency device, so BenchmarkFleetCampaign isolates
// exactly the coordinator's ability to overlap *workers* — the
// scale-out dimension — independent of how many cores this build
// machine happens to have.
func newStubFleetWorker(b *testing.B, perCell time.Duration) *httptest.Server {
	b.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/health", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status": "ok", "code_version": "bench", "experiments": 2, "scenarios": 0, "cache": "disabled", "jobs": 1, "gomaxprocs": 1}`)
	})
	mux.HandleFunc("POST /api/v1/campaign", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			IDs   []string `json:"ids"`
			Seeds []int64  `json:"seeds"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		flusher, _ := w.(http.Flusher)
		enc.Encode(map[string]any{"type": "campaign", "cells": len(req.IDs) * len(req.Seeds)})
		for _, id := range req.IDs {
			for _, seed := range req.Seeds {
				time.Sleep(perCell)
				enc.Encode(map[string]any{
					"type": "cell", "id": id, "seed": seed,
					"metrics": []sim.Metric{{Name: "bench_metric", Value: float64(seed)}},
					"report":  fmt.Sprintf("report %s seed %d", id, seed),
				})
				if flusher != nil {
					flusher.Flush()
				}
			}
		}
		enc.Encode(map[string]any{"type": "done"})
	})
	ts := httptest.NewServer(mux)
	b.Cleanup(ts.Close)
	return ts
}

// BenchmarkFleetCampaign measures fleet scale-out: one 32-cell
// campaign sharded across 1, 2, and 4 stub workers, each a serial
// 2ms-per-cell device (see newStubFleetWorker for why the workers are
// stubs). cells/sec should scale ~linearly with the worker count; the
// gap from linear is pure coordinator overhead (handshake, chunk
// dispatch, NDJSON merge, grid-order collection).
func BenchmarkFleetCampaign(b *testing.B) {
	const perCell = 2 * time.Millisecond
	ids := []string{"bench-a", "bench-b"}
	seeds := campaign.Seeds(1, 16)
	cells := len(ids) * len(seeds)
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) {
			var urls []string
			for i := 0; i < n; i++ {
				urls = append(urls, newStubFleetWorker(b, perCell).URL)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := fleet.Run(context.Background(), fleet.Config{
					Workers:   urls,
					IDs:       ids,
					Seeds:     seeds,
					ChunkSize: 2,
					InFlight:  1,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Result.Cells) != cells {
					b.Fatalf("merged %d cells, want %d", len(rep.Result.Cells), cells)
				}
			}
			b.ReportMetric(float64(cells*b.N)/b.Elapsed().Seconds(), "cells/sec")
		})
	}
}

// BenchmarkFleetCacheReplay measures the cross-worker cache-replay
// path end to end with two REAL in-process daemons sharing one cache
// directory: the first (untimed) run populates the cache, then every
// timed fleet run is served entirely from shared cache entries. This
// is the repeated-sweep economics of a fleet: ns/op here is the full
// coordinator + HTTP + cache-replay cost of a 16-cell campaign whose
// compute already happened somewhere else.
func BenchmarkFleetCacheReplay(b *testing.B) {
	cacheDir := filepath.Join(b.TempDir(), "cache")
	var urls []string
	for i := 0; i < 2; i++ {
		cfg := config.Default()
		cfg.ScenarioDir = filepath.Join(b.TempDir(), "no-scenarios")
		cfg.Cache.Dir = cacheDir
		s, err := server.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		b.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	cfg := fleet.Config{
		Workers:   urls,
		IDs:       []string{"fig3", "exp-ids"},
		Seeds:     campaign.Seeds(42, 8),
		ChunkSize: 4,
	}
	// Warm the shared cache outside the timer.
	if _, err := fleet.Run(context.Background(), cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := fleet.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Result.Cells) != 16 {
			b.Fatalf("merged %d cells, want 16", len(rep.Result.Cells))
		}
	}
	b.ReportMetric(float64(16*b.N)/b.Elapsed().Seconds(), "cells/sec")
}

// --- substrate micro-benchmarks (hot paths) ---

// BenchmarkRunEncounter times one car-following encounter per fusion
// policy — the unit of work exp-ca fans out over the replicate pool,
// and the sensing/fusion stack's end-to-end hot path.
func BenchmarkRunEncounter(b *testing.B) {
	key := []byte("exp-ca-range-key")
	for _, policy := range []sensor.FusionPolicy{sensor.NaiveFusion, sensor.ConsensusFusion, sensor.VerifiedFusion} {
		b.Run(policy.String(), func(b *testing.B) {
			b.ReportAllocs()
			rng := sim.NewRNG(42)
			cfg := sensor.DefaultEncounter(policy, nil)
			for i := 0; i < b.N; i++ {
				res, err := sensor.RunEncounter(cfg, key, rng)
				if err != nil {
					b.Fatal(err)
				}
				if res.Collided {
					b.Fatal("benign encounter collided")
				}
			}
		})
	}
}

// BenchmarkFuse times one Sense+Fuse tick under consensus fusion: the
// innermost loop of every encounter (200 ticks each), dominated by
// detection clustering.
func BenchmarkFuse(b *testing.B) {
	b.ReportAllocs()
	rng := sim.NewRNG(42)
	w := world.New()
	if err := w.Add(&world.Actor{ID: "ego", Radius: 1, Transponder: true}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		a := &world.Actor{ID: fmt.Sprintf("car%d", i), Pos: world.Vec2{X: float64(10 + 15*i), Y: float64(i % 2)}, Radius: 1, Transponder: true}
		if err := w.Add(a); err != nil {
			b.Fatal(err)
		}
	}
	suite := sensor.NewSuite("ego", []byte("exp-ca-range-key"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dets := suite.Sense(w, nil, rng)
		obs := suite.Fuse(w, dets, sensor.ConsensusFusion, nil, rng)
		if len(obs) == 0 {
			b.Fatal("no fused obstacles")
		}
	}
}

func BenchmarkCMAC64B(b *testing.B) {
	b.ReportAllocs()
	c, err := vcrypto.NewCMAC([]byte("0123456789abcdef"))
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 64)
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		c.Sum(msg)
	}
}

func BenchmarkGCMSeal1KiB(b *testing.B) {
	b.ReportAllocs()
	g, err := vcrypto.NewGCM(vcrypto.DeriveKey([]byte("0123456789abcdef"), "bench", "gcm", 16))
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		g.Seal(nil, 1, uint32(i)+1, nil, msg)
	}
}

func BenchmarkUWBCorrelate256(b *testing.B) {
	b.ReportAllocs()
	rng := sim.NewRNG(1)
	sts, err := uwb.NewSTS([]byte("0123456789abcdef"), 1, 256)
	if err != nil {
		b.Fatal(err)
	}
	ch := uwb.Channel{DistanceM: 60, NoiseStd: 0.2}
	rx := ch.Propagate(sts.Waveform(), ch.DelaySamples()+len(sts.Waveform())+512, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if corr := uwb.Correlate(rx, sts); len(corr) == 0 {
			b.Fatal("empty correlation")
		}
	}
}

// BenchmarkSecureToA times one secure 256-pulse Session.Measure at
// exp-ca's channel. "fixed" repeats one session, so every call after the
// first hits the arena's STS cache; "advancing" moves the session
// counter every call, as exp-ca's RangeTo does, so each call also
// derives a fresh STS.
func BenchmarkSecureToA(b *testing.B) {
	for _, advance := range []bool{false, true} {
		name := "fixed"
		if advance {
			name = "advancing"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			rng := sim.NewRNG(1)
			sess := uwb.Session{
				Key: []byte("0123456789abcdef"), Session: 1, Pulses: 256,
				Channel: uwb.Channel{DistanceM: 60, NoiseStd: 0.2},
				Secure:  true, Config: uwb.DefaultSecureConfig(),
			}
			for i := 0; i < b.N; i++ {
				if advance {
					sess.Session++
				}
				if _, err := sess.Measure(nil, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkIVNScenarioS1Throughput(b *testing.B) {
	b.ReportAllocs()
	cfg := ivn.Config{Seed: 1, Messages: 100, PeriodUs: 500, PayloadBytes: 4}
	for i := 0; i < b.N; i++ {
		res, err := ivn.RunS1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Delivered != 100 {
			b.Fatalf("delivered %d", res.Delivered)
		}
	}
}

// BenchmarkSecchanProtectVerify measures one protect→verify round trip
// through every registered suite (plus the MACsec integrity-only
// variant) on a 64-byte payload — the per-message cost behind the
// Table I and IVN overhead comparisons.
func BenchmarkSecchanProtectVerify(b *testing.B) {
	key := []byte("0123456789abcdef")
	payload := make([]byte, 64)
	run := func(name string, mk func() (secchan.Suite, error)) {
		b.Run(name, func(b *testing.B) {
			s, err := mk()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			for i := 0; i < b.N; i++ {
				wire, err := s.Protect(payload)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Verify(wire); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, e := range suites.Registry() {
		run(e.Name, func() (secchan.Suite, error) {
			return e.New(secchan.Params{Key: key, RNG: sim.NewRNG(1)})
		})
	}
	integ, err := suites.Lookup("MACsec-integ")
	if err != nil {
		b.Fatal(err)
	}
	run(integ.Name, func() (secchan.Suite, error) {
		return integ.New(secchan.Params{Key: key})
	})
}
