package ids

import (
	"math"

	"autosec/internal/canbus"
	"autosec/internal/sim"
)

// EntropyDetector flags identifiers whose payload byte distribution
// shifts abruptly. Periodic control frames carry highly structured,
// low-entropy payloads (counters, slowly-varying physical values);
// fuzzing campaigns and ciphertext-stuffing inject near-uniform bytes.
type EntropyDetector struct {
	// Window is the number of payloads per estimate.
	Window int
	// Threshold is the entropy jump (bits/byte) that raises an alert.
	Threshold float64

	history  map[uint32][]float64 // recent per-window entropies
	buffer   map[uint32][]byte
	baseline map[uint32]float64
	training bool
}

// NewEntropyDetector returns a detector in training mode.
func NewEntropyDetector() *EntropyDetector {
	return &EntropyDetector{
		Window:    16,
		Threshold: 1.5,
		history:   map[uint32][]float64{},
		buffer:    map[uint32][]byte{},
		baseline:  map[uint32]float64{},
		training:  true,
	}
}

// EndTraining freezes per-identifier baselines.
func (d *EntropyDetector) EndTraining() {
	d.training = false
	for id, es := range d.history {
		sum := 0.0
		for _, e := range es {
			sum += e
		}
		if len(es) > 0 {
			d.baseline[id] = sum / float64(len(es))
		}
	}
}

// Observe feeds one frame; it may return an alert after a window
// boundary.
func (d *EntropyDetector) Observe(now sim.Time, f *canbus.Frame) *Alert {
	d.buffer[f.ID] = append(d.buffer[f.ID], f.Payload...)
	if len(d.buffer[f.ID]) < d.Window*8 {
		return nil
	}
	e := byteEntropy(d.buffer[f.ID])
	d.buffer[f.ID] = nil
	if d.training {
		d.history[f.ID] = append(d.history[f.ID], e)
		return nil
	}
	base, known := d.baseline[f.ID]
	if !known {
		return nil // interval detector owns the unknown-ID case
	}
	if e-base > d.Threshold {
		return &Alert{At: now, Detector: "entropy", FrameID: f.ID}
	}
	return nil
}

// byteEntropy computes Shannon entropy in bits per byte.
func byteEntropy(data []byte) float64 {
	if len(data) == 0 {
		return 0
	}
	var counts [256]int
	for _, b := range data {
		counts[b]++
	}
	h := 0.0
	n := float64(len(data))
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	return h
}

// LoadDetector watches aggregate bus load and flags flooding: a
// sustained frame rate far above the learned level is the
// denial-of-service signature regardless of payload or identifier.
type LoadDetector struct {
	// WindowNs is the measurement window.
	WindowNs sim.Time
	// Multiplier over the learned rate that raises an alert.
	Multiplier float64

	windowStart sim.Time
	count       int
	learnedRate float64 // frames per window
	windows     int
	training    bool
}

// NewLoadDetector returns a detector in training mode with a 10 ms
// window.
func NewLoadDetector() *LoadDetector {
	return &LoadDetector{WindowNs: 10 * sim.Millisecond, Multiplier: 3, training: true}
}

// EndTraining freezes the learned rate.
func (d *LoadDetector) EndTraining() { d.training = false }

// Observe counts one frame; it returns an alert when a window closes
// hot.
func (d *LoadDetector) Observe(now sim.Time, f *canbus.Frame) *Alert {
	if d.windowStart == 0 {
		d.windowStart = now
	}
	for now-d.windowStart >= d.WindowNs {
		// Close the window.
		rate := float64(d.count)
		var alert *Alert
		if d.training {
			d.learnedRate += (rate - d.learnedRate) / float64(d.windows+1)
			d.windows++
		} else if d.learnedRate > 0 && rate > d.Multiplier*d.learnedRate {
			alert = &Alert{At: now, Detector: "busload", FrameID: f.ID}
		}
		d.windowStart += d.WindowNs
		d.count = 0
		if alert != nil {
			d.count++
			return alert
		}
	}
	d.count++
	return nil
}
