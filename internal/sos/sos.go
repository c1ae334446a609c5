// Package sos models the system-of-systems architecture of the paper's
// §VI (Fig. 9): a containment hierarchy of systems across levels 0–3,
// typed interfaces that form the attack surface, inter-system links over
// which compromise cascades, and stakeholder/responsibility annotations
// whose gaps are themselves a finding ("ambiguous roles and
// responsibilities ... hinder comprehensive risk assessments").
//
// Exercised by experiment fig9.
package sos

import (
	"fmt"
	"sort"

	"autosec/internal/sim"
)

// InterfaceKind classifies an entry point.
type InterfaceKind int

const (
	PhysicalPort   InterfaceKind = iota // OBD, debug headers, charge port
	SensorInput                         // cameras, lidar, radar apertures
	WirelessLink                        // cellular, V2X, Bluetooth, UWB
	BackendAPI                          // cloud/service interfaces
	HumanInterface                      // passenger UI, operator consoles
)

func (k InterfaceKind) String() string {
	switch k {
	case PhysicalPort:
		return "physical"
	case SensorInput:
		return "sensor"
	case WirelessLink:
		return "wireless"
	case BackendAPI:
		return "backend"
	case HumanInterface:
		return "human"
	default:
		return fmt.Sprintf("InterfaceKind(%d)", int(k))
	}
}

// Interface is one entry point of a system.
type Interface struct {
	Name string
	Kind InterfaceKind
	// External marks interfaces reachable from outside the system of
	// systems (the attack surface proper).
	External bool
}

// System is one node in the hierarchy.
type System struct {
	ID    string
	Name  string
	Level int
	// Parent is the containing system ("" for the level-0 root).
	Parent string
	// Stakeholder is the organization responsible for the system.
	Stakeholder string
	// SafetyCritical marks systems whose compromise endangers life.
	SafetyCritical bool
	Interfaces     []Interface
}

// Link is a communication/dependency edge over which compromise can
// cascade.
type Link struct {
	From, To string
	// Propagation is the probability a compromise of From spreads to To
	// in one cascade step (models how hardened the boundary is).
	Propagation float64
	// SecurityOwner is the stakeholder responsible for securing this
	// link; "" marks the ambiguous-responsibility gap the paper calls
	// out.
	SecurityOwner string
}

// Model is the complete system of systems.
type Model struct {
	systems map[string]*System
	order   []string
	links   []*Link
}

// NewModel returns an empty model.
func NewModel() *Model {
	return &Model{systems: make(map[string]*System)}
}

// AddSystem inserts a system. Parents must exist before children.
func (m *Model) AddSystem(s *System) error {
	if s.ID == "" {
		return fmt.Errorf("sos: system needs an ID")
	}
	if _, dup := m.systems[s.ID]; dup {
		return fmt.Errorf("sos: duplicate system %s", s.ID)
	}
	if s.Parent != "" {
		parent, ok := m.systems[s.Parent]
		if !ok {
			return fmt.Errorf("sos: parent %s of %s not found", s.Parent, s.ID)
		}
		if s.Level != parent.Level+1 {
			return fmt.Errorf("sos: %s at level %d under parent at level %d", s.ID, s.Level, parent.Level)
		}
	} else if s.Level != 0 {
		return fmt.Errorf("sos: root %s must be level 0", s.ID)
	}
	m.systems[s.ID] = s
	m.order = append(m.order, s.ID)
	return nil
}

// AddLink inserts a cascade edge between existing systems.
func (m *Model) AddLink(l *Link) error {
	if _, ok := m.systems[l.From]; !ok {
		return fmt.Errorf("sos: link from unknown system %s", l.From)
	}
	if _, ok := m.systems[l.To]; !ok {
		return fmt.Errorf("sos: link to unknown system %s", l.To)
	}
	if l.Propagation < 0 || l.Propagation > 1 {
		return fmt.Errorf("sos: propagation %f out of [0,1]", l.Propagation)
	}
	m.links = append(m.links, l)
	return nil
}

// System returns a system by ID (nil if absent).
func (m *Model) System(id string) *System { return m.systems[id] }

// Systems returns all systems in insertion order.
func (m *Model) Systems() []*System {
	out := make([]*System, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.systems[id])
	}
	return out
}

// Links returns all links.
func (m *Model) Links() []*Link { return m.links }

// SurfaceReport summarizes attack surface per level.
type SurfaceReport struct {
	Level              int
	Systems            int
	Interfaces         int
	ExternalInterfaces int
	ByKind             map[InterfaceKind]int
}

// AttackSurface computes the per-level surface report: the Fig. 9
// quantity "broad attack surface due to multiple physical and digital
// entry points".
func (m *Model) AttackSurface() []SurfaceReport {
	byLevel := map[int]*SurfaceReport{}
	maxLevel := 0
	for _, s := range m.Systems() {
		r, ok := byLevel[s.Level]
		if !ok {
			r = &SurfaceReport{Level: s.Level, ByKind: map[InterfaceKind]int{}}
			byLevel[s.Level] = r
		}
		if s.Level > maxLevel {
			maxLevel = s.Level
		}
		r.Systems++
		for _, itf := range s.Interfaces {
			r.Interfaces++
			if itf.External {
				r.ExternalInterfaces++
				r.ByKind[itf.Kind]++
			}
		}
	}
	var out []SurfaceReport
	for l := 0; l <= maxLevel; l++ {
		if r, ok := byLevel[l]; ok {
			out = append(out, *r)
		}
	}
	return out
}

// ResponsibilityGaps returns links without a security owner, plus links
// crossing stakeholders (where ownership is most often contested).
func (m *Model) ResponsibilityGaps() (unowned, crossStakeholder []*Link) {
	for _, l := range m.links {
		from, to := m.systems[l.From], m.systems[l.To]
		if l.SecurityOwner == "" {
			unowned = append(unowned, l)
		}
		if from.Stakeholder != to.Stakeholder {
			crossStakeholder = append(crossStakeholder, l)
		}
	}
	return unowned, crossStakeholder
}

// CascadeResult summarizes a Monte-Carlo cascade study.
type CascadeResult struct {
	Entry string
	// MeanCompromised is the expected number of compromised systems.
	MeanCompromised float64
	// SafetyCriticalProb is the probability a safety-critical system is
	// reached.
	SafetyCriticalProb float64
	// ReachedOnce lists systems compromised in ≥1 trial (sorted).
	ReachedOnce []string
}

// Cascade runs trials of probabilistic compromise propagation from the
// entry system across links (both directions are traversable: a link is
// a communication relationship).
//
// Systems are interned to dense indices so each trial runs over slices;
// every node keeps its edges in link order, so the rng.Bool draws come
// in the same sequence as a walk over the links themselves.
func (m *Model) Cascade(entry string, trials int, rng *sim.RNG) (CascadeResult, error) {
	if _, ok := m.systems[entry]; !ok {
		return CascadeResult{}, fmt.Errorf("sos: unknown entry %s", entry)
	}
	if trials <= 0 {
		return CascadeResult{}, fmt.Errorf("sos: trials must be positive")
	}
	type edge struct {
		to int
		p  float64
	}
	index := make(map[string]int, len(m.order))
	safety := make([]bool, len(m.order))
	for i, id := range m.order {
		index[id] = i
		safety[i] = m.systems[id].SafetyCritical
	}
	adj := make([][]edge, len(m.order))
	for _, l := range m.links {
		from, to := index[l.From], index[l.To]
		adj[from] = append(adj[from], edge{to, l.Propagation})
		adj[to] = append(adj[to], edge{from, l.Propagation})
	}

	src := index[entry]
	compromised := make([]bool, len(m.order))
	reached := make([]bool, len(m.order))
	// touched is the trial's breadth-first queue: the systems compromised
	// so far, in the order the level-by-level walk reaches them. It also
	// bounds the reset of compromised to what the trial set.
	var touched []int
	totalCompromised := 0
	safetyHits := 0
	for trial := 0; trial < trials; trial++ {
		compromised[src] = true
		touched = append(touched[:0], src)
		for q := 0; q < len(touched); q++ {
			for _, e := range adj[touched[q]] {
				if compromised[e.to] {
					continue
				}
				if rng.Bool(e.p) {
					compromised[e.to] = true
					touched = append(touched, e.to)
				}
			}
		}
		totalCompromised += len(touched)
		hitSafety := false
		for _, id := range touched {
			reached[id] = true
			compromised[id] = false
			if safety[id] {
				hitSafety = true
			}
		}
		if hitSafety {
			safetyHits++
		}
	}
	var reachedList []string
	for id, ok := range reached {
		if ok {
			reachedList = append(reachedList, m.order[id])
		}
	}
	sort.Strings(reachedList)
	return CascadeResult{
		Entry:              entry,
		MeanCompromised:    float64(totalCompromised) / float64(trials),
		SafetyCriticalProb: float64(safetyHits) / float64(trials),
		ReachedOnce:        reachedList,
	}, nil
}

// Harden multiplies every link's propagation by factor (0 < factor ≤ 1),
// modelling a uniform segmentation/hardening investment, and assigns an
// owner to unowned links. It returns the number of links changed.
func (m *Model) Harden(factor float64, owner string) (int, error) {
	if factor <= 0 || factor > 1 {
		return 0, fmt.Errorf("sos: hardening factor %f out of (0,1]", factor)
	}
	changed := 0
	for _, l := range m.links {
		l.Propagation *= factor
		if l.SecurityOwner == "" && owner != "" {
			l.SecurityOwner = owner
		}
		changed++
	}
	return changed, nil
}
