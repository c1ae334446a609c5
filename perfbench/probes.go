package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"autosec/internal/core"
	"autosec/internal/resultcache"
	"autosec/internal/scenario"
	"autosec/internal/secchan"
	"autosec/internal/secchan/suites"
	"autosec/internal/sensor"
	"autosec/internal/sim"
	"autosec/internal/uwb"
)

// probes are per-layer costs timed from outside by calling one layer's
// public functions directly, with the workload's seed and, where the
// layer sees workload data, the workload's real inputs.
type probes struct {
	values map[string]metric
	// serving holds the serving probe's sweeps, for workloads that do
	// not run the daemons themselves.
	serving []*passOut
}

func (p *probes) add(name string, v float64, unit string, n int, note string) {
	p.values[name] = metric{Name: name, Value: v, Unit: unit, N: n, Note: note}
}

// perCall runs f reps times and returns the median time of one call
// divided by ops, the operations one call performs, in nanoseconds.
func perCall(reps, ops int, f func() error) (float64, error) {
	samples := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		samples = append(samples, float64(time.Since(t0))/float64(ops))
	}
	return median(samples), nil
}

// exp-ca's ranging: the key, and the channel at the braking range.
var (
	rangingKey     = []byte("exp-ca-range-key")
	rangingChannel = uwb.Channel{DistanceM: 45, NoiseStd: 0.2}
)

func runProbes(o options, w workload, entries []*resultcache.Entry, scratch string) (*probes, error) {
	p := &probes{values: make(map[string]metric)}
	steps := []func(*probes, int64) error{simProbes, uwbProbes, sensorProbes, secchanProbes, compileProbe}
	if o.workload != "registry" {
		steps = append(steps, coreProbe)
	}
	if o.workload != "corpus" {
		steps = append(steps, scenarioProbe)
	}
	for _, step := range steps {
		if err := step(p, o.seed); err != nil {
			return nil, err
		}
	}
	if err := cacheProbe(p, entries, scratch); err != nil {
		return nil, err
	}
	if in, ok := w.(*inproc); ok {
		if err := servingProbe(p, in.ids, o.seed, scratch); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func simProbes(p *probes, seed int64) error {
	rng := sim.NewRNG(seed)
	buf := make([]float64, 4096)
	d, _ := perCall(300, len(buf), func() error { rng.NormFill(buf); return nil })
	p.add("sim.normfill_ns_per_sample", d, "ns", 300, "RNG.NormFill of 4096 samples")
	return nil
}

func uwbProbes(p *probes, seed int64) error {
	rng := sim.NewRNG(seed)
	sess := uwb.Session{Key: rangingKey, Pulses: 256, Channel: rangingChannel,
		Secure: true, Config: uwb.DefaultSecureConfig(), NaiveThreshold: 0.4}
	d, err := perCall(300, 1, func() error {
		sess.Session++
		_, err := sess.Measure(nil, rng)
		return err
	})
	if err != nil {
		return fmt.Errorf("uwb measure: %w", err)
	}
	p.add("uwb.measure_us", d/1e3, "us", 300, "secure 256-pulse Session.Measure at exp-ca's channel")

	sts, err := uwb.NewSTS(rangingKey, 1, 256)
	if err != nil {
		return err
	}
	wave := sts.Waveform()
	obs := rangingChannel.DelaySamples() + len(wave) + 512
	rx := rangingChannel.Propagate(wave, obs, rng)
	d, err = perCall(300, 1, func() error {
		if len(uwb.Correlate(rx, sts)) == 0 {
			return errors.New("uwb: empty correlation")
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.add("uwb.correlate_us", d/1e3, "us", 300, "Correlate, 256-pulse STS")
	d, _ = perCall(300, 1, func() error { rangingChannel.Propagate(wave, obs, rng); return nil })
	p.add("uwb.propagate_us", d/1e3, "us", 300, "Channel.Propagate, 256-pulse STS")
	return nil
}

func sensorProbes(p *probes, seed int64) error {
	rng := sim.NewRNG(seed)
	for _, c := range []struct {
		name   string
		policy sensor.FusionPolicy
		reps   int
	}{{"verified", sensor.VerifiedFusion, 20}, {"naive", sensor.NaiveFusion, 200}} {
		cfg := sensor.DefaultEncounter(c.policy, nil)
		d, err := perCall(c.reps, 1, func() error {
			_, err := sensor.RunEncounter(cfg, rangingKey, rng)
			return err
		})
		if err != nil {
			return fmt.Errorf("sensor %s encounter: %w", c.name, err)
		}
		p.add("sensor.encounter_ms."+c.name, d/1e6, "ms", c.reps, "RunEncounter, benign exp-ca encounter")
	}
	return nil
}

func secchanProbes(p *probes, seed int64) error {
	key := []byte("0123456789abcdef")
	payload := make([]byte, 16)
	const reps, frames = 60, 50
	for _, e := range suites.Registry() {
		s, err := e.New(secchan.Params{Key: key, RNG: sim.NewRNG(seed)})
		if err != nil {
			return fmt.Errorf("secchan %s: %w", e.Name, err)
		}
		d, err := perCall(reps, frames, func() error {
			for i := 0; i < frames; i++ {
				wire, err := s.Protect(payload)
				if err != nil {
					return err
				}
				if _, err := s.Verify(wire); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("secchan %s round trip: %w", e.Name, err)
		}
		p.add("secchan.roundtrip_ns."+suiteKey(e.Name), d, "ns", reps, "single-frame Protect then Verify, 16-byte payload")
	}

	e, err := suites.Lookup("SECOC")
	if err != nil {
		return err
	}
	s, err := e.New(secchan.Params{Key: key, RNG: sim.NewRNG(seed)})
	if err != nil {
		return err
	}
	payloads := make([][]byte, 256)
	for i := range payloads {
		payloads[i] = make([]byte, 16)
	}
	var wires [][]byte
	var verdicts []secchan.Verdict
	d, err := perCall(reps, len(payloads), func() error {
		var err error
		if wires, err = secchan.ProtectBatch(s, payloads, wires); err != nil {
			return err
		}
		verdicts = secchan.VerifyBatch(s, wires, verdicts)
		for _, v := range verdicts {
			if v.Err != nil {
				return v.Err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("secchan SECOC batch: %w", err)
	}
	p.add("secchan.batch_ns_per_frame.secoc", d, "ns", reps, "ProtectBatch then VerifyBatch, n=256")
	return nil
}

func compileProbe(p *probes, _ int64) error {
	const reps = 7
	d, err := perCall(reps, 1, func() error {
		_, err := scenario.CompileDir(scenarioDir)
		return err
	})
	if err != nil {
		return err
	}
	p.add("scenario.compile_ms", d/1e6, "ms", reps, "CompileDir of the corpus")
	return nil
}

// coreProbe runs the broken-out registry experiments once each, serially,
// for workloads whose passes do not run them.
func coreProbe(p *probes, seed int64) error {
	var rest []float64
	for _, e := range core.Experiments() {
		t0 := time.Now()
		if _, err := core.RunExperimentResult(e.ID, seed, core.RunOptions{}); err != nil {
			return err
		}
		d := ms(time.Since(t0))
		if g := coreGroup(e.ID); g != "rest" {
			p.add("core.cell_ms."+g, d, "ms", 1, "probe: one serial run")
		} else {
			rest = append(rest, d)
		}
	}
	p.add("core.cell_ms.rest", median(rest), "ms", len(rest), "probe: median of one serial run each")
	return nil
}

// scenarioProbe runs every corpus scenario once, serially, grouped by
// its protecting suite.
func scenarioProbe(p *probes, seed int64) error {
	specs, err := scenario.LoadDir(scenarioDir)
	if err != nil {
		return err
	}
	bySuite := make(map[string][]float64)
	for _, sp := range specs {
		e, err := scenario.Compile(sp)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := core.RunResultOf(e, seed, core.RunOptions{}); err != nil {
			return err
		}
		k := suiteKey(sp.Protocol.Suite)
		bySuite[k] = append(bySuite[k], ms(time.Since(t0)))
	}
	for k, v := range bySuite {
		p.add("scenario.cell_ms."+k, median(v), "ms", len(v), "probe: median of one serial run each")
	}
	return nil
}

// suiteGroups maps each corpus scenario id to its suite's metric suffix.
func suiteGroups() (map[string]string, error) {
	specs, err := scenario.LoadDir(scenarioDir)
	if err != nil {
		return nil, err
	}
	m := make(map[string]string, len(specs))
	for _, sp := range specs {
		m[scenario.IDPrefix+sp.Name] = suiteKey(sp.Protocol.Suite)
	}
	return m, nil
}

// cacheProbe times resultcache.Put and Get on the workload's own cell
// results in a fresh cache.
func cacheProbe(p *probes, entries []*resultcache.Entry, scratch string) error {
	if len(entries) > 256 {
		entries = entries[:256]
	}
	if len(entries) == 0 {
		return errors.New("cache probe: no entries")
	}
	dir, err := os.MkdirTemp(scratch, "probe-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c, err := resultcache.New(filepath.Join(dir, "cache"))
	if err != nil {
		return err
	}
	key := func(i int) string { return resultcache.Key("perfbench", strconv.Itoa(i)) }
	var put, get []float64
	for i, e := range entries {
		t0 := time.Now()
		if err := c.Put(key(i), e); err != nil {
			return err
		}
		put = append(put, us(time.Since(t0)))
	}
	for i, e := range entries {
		t0 := time.Now()
		got, ok := c.Get(key(i))
		get = append(get, us(time.Since(t0)))
		if !ok || got.Report != e.Report {
			return fmt.Errorf("cache probe: entry %d did not round-trip", i)
		}
	}
	p.add("cache.put_us", median(put), "us", len(put), "Put of the workload's cell results")
	p.add("cache.get_us", median(get), "us", len(get), "Get of the workload's cell results")
	return nil
}

// servingProbe serves the in-process workload's ids at its base seed
// through the fleet twice, cold and then warm, over two fresh daemons.
func servingProbe(p *probes, ids []string, seed int64, scratch string) error {
	dir, err := os.MkdirTemp(scratch, "probe-fleet-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	f, err := setupFleet(ids, func(int) []int64 { return []int64{seed} }, filepath.Join(dir, "cache"))
	if err != nil {
		return err
	}
	defer f.close()
	tr := &recorder{}
	for k := 0; k < 2; k++ {
		out, err := f.pass(k, tr)
		if err != nil {
			return err
		}
		if out.reqFails > 0 || len(out.errs) > 0 {
			return fmt.Errorf("serving probe sweep %d failed: %v", k, out.errs)
		}
		p.serving = append(p.serving, out)
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
