// Package killchain implements the Fig. 8 attack kill chain against the
// telemetry cloud of package telemetry: traffic analysis → directory
// enumeration → supply-chain identification → heap dump → key extraction
// → data extraction. Each stage has explicit preconditions (what the
// attacker must already hold) and effects (what it yields), so the
// experiment can show precisely which defence breaks which link — the
// paper's point that one hardening step anywhere in the chain stops the
// breach.
//
// Exercised by experiments fig8 and exp-stealth.
package killchain

import (
	"fmt"
	"regexp"
	"strings"

	"autosec/internal/ext"
	"autosec/internal/telemetry"
)

// Stage identifies one link of the chain.
type Stage int

const (
	TrafficAnalysis Stage = iota
	DirectoryEnumeration
	SupplyChainIdentification
	HeapDump
	KeyExtraction
	DataExtraction
	stageCount
)

// Stages lists the chain in order.
func Stages() []Stage {
	out := make([]Stage, stageCount)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

func (s Stage) String() string {
	switch s {
	case TrafficAnalysis:
		return "traffic-analysis"
	case DirectoryEnumeration:
		return "directory-enumeration"
	case SupplyChainIdentification:
		return "supply-chain-identification"
	case HeapDump:
		return "heap-dump"
	case KeyExtraction:
		return "key-extraction"
	case DataExtraction:
		return "data-extraction"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// StageResult records one stage's outcome.
type StageResult struct {
	Stage   Stage
	Success bool
	Detail  string
}

// Report is the complete chain outcome.
type Report struct {
	Stages []StageResult
	// Breached is true when data extraction succeeded.
	Breached bool
	// RecordsExfiltrated counts stolen data points.
	RecordsExfiltrated int
	// VehiclesAffected counts distinct VINs stolen.
	VehiclesAffected int
	// PrecisionM is the geolocation precision of the stolen data.
	PrecisionM float64
	// PersonalData is true when names/emails were included.
	PersonalData bool
}

// FailedAt returns the first failed stage, or -1 if all succeeded.
func (r *Report) FailedAt() int {
	for i, s := range r.Stages {
		if !s.Success {
			return i
		}
	}
	return -1
}

// String renders a stage-by-stage trace.
func (r *Report) String() string {
	var b strings.Builder
	for _, s := range r.Stages {
		mark := "✗"
		if s.Success {
			mark = "✓"
		}
		fmt.Fprintf(&b, "%s %-28s %s\n", mark, s.Stage.String(), s.Detail)
	}
	if r.Breached {
		fmt.Fprintf(&b, "BREACH: %d records, %d vehicles, ~%.0f m precision, personal data: %v\n",
			r.RecordsExfiltrated, r.VehiclesAffected, r.PrecisionM, r.PersonalData)
	} else {
		fmt.Fprintf(&b, "chain broken at stage %d\n", r.FailedAt())
	}
	return b.String()
}

// attacker state accumulated across stages.
type attacker struct {
	endpoint  bool
	paths     []string
	framework string
	dump      string
	iamKey    string
	token     string
}

var keyPattern = regexp.MustCompile(`accessKey="([^"]+)"`)

// Run executes the chain against the cloud and reports the outcome. The
// chain stops at the first failed stage (later stages lack their
// preconditions by construction).
func Run(cloud *telemetry.Cloud) *Report {
	rep := &Report{}
	att := &attacker{}

	add := func(stage Stage, ok bool, detail string) bool {
		rep.Stages = append(rep.Stages, StageResult{Stage: stage, Success: ok, Detail: detail})
		return ok
	}

	// 1. Traffic analysis: vehicles talk to the backend over the air;
	// observing any connected car reveals the endpoint. Always works —
	// the paper's "increasing attack surface" premise.
	att.endpoint = true
	if !add(TrafficAnalysis, true, "telemetry endpoint identified from vehicle traffic") {
		return rep
	}

	// 2. Directory enumeration (gobuster) against the web API.
	att.paths = cloud.EnumeratePaths(64)
	enumOK := len(att.paths) > 1
	if !add(DirectoryEnumeration, enumOK, fmt.Sprintf("%d paths discovered", len(att.paths))) {
		return rep
	}

	// 3. Supply-chain identification: the /actuator tree identifies the
	// Spring framework and therefore the heap-dump facility.
	for _, p := range att.paths {
		if strings.HasPrefix(p, "/actuator") {
			att.framework = "spring"
			break
		}
	}
	if !add(SupplyChainIdentification, att.framework != "", "framework: "+att.framework) {
		return rep
	}

	// 4. Heap dump via the debug endpoint.
	status, body := cloud.Probe("/actuator/heapdump")
	att.dump = body
	if !add(HeapDump, status == 200 && body != "", fmt.Sprintf("GET /actuator/heapdump → %d (%d bytes)", status, len(body))) {
		return rep
	}

	// 5. Key extraction: grep the dump for credentials.
	if m := keyPattern.FindStringSubmatch(att.dump); m != nil {
		att.iamKey = m[1]
	}
	if !add(KeyExtraction, att.iamKey != "", "IAM credential recovered from heap") {
		return rep
	}

	// 6. Data extraction: mint a fleet-wide token and pull everything.
	tok, err := cloud.MintToken(att.iamKey, "")
	if err != nil {
		add(DataExtraction, false, "token minting refused: "+err.Error())
		return rep
	}
	att.token = tok
	recs, err := cloud.Fetch(att.token)
	if err != nil || recs.Len() == 0 {
		add(DataExtraction, false, "fetch failed")
		return rep
	}
	add(DataExtraction, true, fmt.Sprintf("%d records exfiltrated", recs.Len()))

	rep.Breached = true
	rep.RecordsExfiltrated = recs.Len()
	rep.VehiclesAffected = recs.Vehicles()
	rep.PersonalData = recs.PersonalData()
	rep.PrecisionM = recs.PrecisionM()
	return rep
}

// Defence identifies a single hardening measure.
type Defence int

const (
	DefendEnumeration Defence = iota
	DisableHeapDump
	ScrubSecrets
	LeastPrivilege
	MinimizeData
	defenceCount
)

func (d Defence) String() string {
	switch d {
	case DefendEnumeration:
		return "enumeration-defence"
	case DisableHeapDump:
		return "disable-heapdump"
	case ScrubSecrets:
		return "secret-scrubbing"
	case LeastPrivilege:
		return "least-privilege"
	case MinimizeData:
		return "data-minimization"
	default:
		return fmt.Sprintf("Defence(%d)", int(d))
	}
}

// Defences lists all hardening measures.
func Defences() []Defence {
	out := make([]Defence, defenceCount)
	for i := range out {
		out[i] = Defence(i)
	}
	return out
}

// DefenceNames lists every defence's canonical name in Defences
// order — the vocabulary of scenario.ini [killchain] sections and of
// the scenario corpus generator.
func DefenceNames() []string {
	ds := Defences()
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.String()
	}
	return out
}

// ParseDefence resolves a canonical defence name; an unknown name
// errors with did-you-mean suggestions and the known names.
func ParseDefence(name string) (Defence, error) {
	for _, d := range Defences() {
		if d.String() == name {
			return d, nil
		}
	}
	return 0, ext.UnknownError("defence", name, DefenceNames())
}

// ConfigFor returns the worst-case config with the named defences
// deployed. This is the scenario DSL's deployment path.
func ConfigFor(names []string) (telemetry.Config, error) {
	cfg := telemetry.WorstCase()
	for _, n := range names {
		d, err := ParseDefence(n)
		if err != nil {
			return cfg, fmt.Errorf("killchain: %w", err)
		}
		applyOne(&cfg, d)
	}
	return cfg, nil
}

// Apply returns the worst-case config with the given defences applied.
func Apply(defs ...Defence) telemetry.Config {
	cfg := telemetry.WorstCase()
	for _, d := range defs {
		applyOne(&cfg, d)
	}
	return cfg
}

func applyOne(cfg *telemetry.Config, d Defence) {
	switch d {
	case DefendEnumeration:
		cfg.EnumerationDefended = true
	case DisableHeapDump:
		cfg.HeapDumpExposed = false
	case ScrubSecrets:
		cfg.SecretsInMemory = false
	case LeastPrivilege:
		cfg.MasterKeyOverPrivileged = false
	case MinimizeData:
		cfg.CoarseLocation = true
	}
}
