package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// hostFacts go into every result so that a comparison across machines
// is visible as one.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func host() hostFacts {
	return hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        procField("/proc/cpuinfo", "model name"),
		Go:         runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in
// MiB; the in-process daemons are part of the process.
func peakRSSMB() float64 { return statusMB("VmHWM") }

// statusMB reads a kB field of /proc/self/status in MiB (0 if absent).
func statusMB(key string) float64 {
	f := strings.Fields(procField("/proc/self/status", key))
	if len(f) == 0 {
		return 0
	}
	kb, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// rssInterval is how often sampleRSS reads the resident set: far
// shorter than a pass, and cheap at a few microseconds a read.
const rssInterval = 5 * time.Millisecond

// sampleRSS reads the resident set (VmRSS) every rssInterval until
// stop is closed, then sends the highest value seen, in MiB.
func sampleRSS(stop <-chan struct{}) <-chan float64 {
	out := make(chan float64, 1)
	go func() {
		peak := statusMB("VmRSS")
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				out <- max(peak, statusMB("VmRSS"))
				return
			case <-t.C:
				peak = max(peak, statusMB("VmRSS"))
			}
		}
	}()
	return out
}

// cpuTicks returns the machine's total and stolen CPU time from the
// first line of /proc/stat, in clock ticks. Stolen time is time the
// hypervisor ran something else on this machine's virtual CPUs.
func cpuTicks() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		if i < 8 { // guest time is already counted in user time
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

// procField returns the value of the first "key: value" line of a
// /proc file, or "" when it is absent.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
