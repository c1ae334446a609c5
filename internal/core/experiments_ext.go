package core

import (
	"fmt"
	"math"
	"strings"

	"autosec/internal/accesscontrol"
	"autosec/internal/ota"
	"autosec/internal/ptp"
	"autosec/internal/v2x"
	"autosec/internal/world"
)

// RunExpAccess reproduces the §VIII controlled-access claim (SeeMQTT,
// ref [54]): threshold secret sharing lets data owners gate access
// across multiple stakeholders, tolerating keyholder compromise below
// the threshold.
func RunExpAccess(rc *RunContext) (string, error) {
	rng := rc.RNG()
	var b strings.Builder

	owner := accesscontrol.NewOwner("vehicle-7", rng)
	holders := []*accesscontrol.Keyholder{
		accesscontrol.NewKeyholder("kh-oem"),
		accesscontrol.NewKeyholder("kh-insurer"),
		accesscontrol.NewKeyholder("kh-authority"),
	}
	msg, err := owner.Publish([]byte("crash report: 48 km/h, brake applied, airbag fired"),
		holders, 2, []string{"workshop-42"}, 10_000)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "§VIII — owner-controlled data access (2-of-3 secret sharing)\n\n")
	fmt.Fprintf(&b, "published %s: ciphertext at the broker, key split across %v\n", msg.ID, msg.Holders)

	tb := rc.Table("access decisions",
		"requester", "condition", "outcome")
	tryCase := func(who, condition string, now int64, prep func(m *accesscontrol.SealedMessage, hs []*accesscontrol.Keyholder)) error {
		fresh := []*accesscontrol.Keyholder{
			accesscontrol.NewKeyholder("kh-oem"),
			accesscontrol.NewKeyholder("kh-insurer"),
			accesscontrol.NewKeyholder("kh-authority"),
		}
		m, err := owner.Publish([]byte("crash report payload"), fresh, 2, []string{"workshop-42"}, 10_000)
		if err != nil {
			return err
		}
		if prep != nil {
			prep(m, fresh)
		}
		_, err = accesscontrol.Retrieve(m, who, fresh, now)
		outcome := "GRANTED"
		if err != nil {
			outcome = "denied"
		}
		tb.AddRow(who, condition, outcome)
		return nil
	}
	cases := []struct {
		who, condition string
		now            int64
		prep           func(m *accesscontrol.SealedMessage, hs []*accesscontrol.Keyholder)
	}{
		{"workshop-42", "authorized", 100, nil},
		{"data-broker", "not on policy", 100, nil},
		{"workshop-42", "grant expired", 20_000, nil},
		{"workshop-42", "revoked at all holders", 100, func(m *accesscontrol.SealedMessage, hs []*accesscontrol.Keyholder) {
			for _, h := range hs {
				h.Revoke(m.ID, "workshop-42")
			}
		}},
		{"attacker", "1 keyholder compromised (below threshold)", 100, func(_ *accesscontrol.SealedMessage, hs []*accesscontrol.Keyholder) {
			hs[0].Compromised = true
		}},
		{"attacker", "2 keyholders compromised (threshold reached)", 100, func(_ *accesscontrol.SealedMessage, hs []*accesscontrol.Keyholder) {
			hs[0].Compromised = true
			hs[1].Compromised = true
		}},
	}
	for _, tc := range cases {
		if err := tryCase(tc.who, tc.condition, tc.now, tc.prep); err != nil {
			return "", err
		}
	}
	b.WriteString("\n")
	b.WriteString(tb.String())
	b.WriteString("\nbelow the threshold a compromised keyholder's share is information-theoretically useless\n")
	b.WriteString("(uniformity verified by property test in package accesscontrol).\n")
	return b.String(), nil
}

// RunExpPTP reproduces the ref-[53] PTPsec result: the time delay
// attack skews standard PTP undetectably, and cyclic path asymmetry
// analysis over redundant paths detects, localizes, and routes around
// it.
func RunExpPTP(rc *RunContext) (string, error) {
	master := ptp.Clock{}
	slave := ptp.Clock{OffsetNs: 125_000}
	mkPaths := func() []*ptp.Link {
		return []*ptp.Link{
			{Name: "a", FwdNs: 5000, RevNs: 5000},
			{Name: "b", FwdNs: 8000, RevNs: 8000},
			{Name: "c", FwdNs: 11000, RevNs: 11000},
		}
	}

	tb := rc.Table("§VIII / ref [53] — PTP time delay attack vs PTPsec (3 redundant paths)",
		"attack", "naive-PTP-error-ns", "detected", "localized", "PTPsec-error-ns", "synced-via")
	cases := []struct {
		name  string
		apply func(paths []*ptp.Link)
	}{
		{"none", func([]*ptp.Link) {}},
		{"fwd +4µs on a", func(p []*ptp.Link) { p[0].AttackFwdNs = 4000 }},
		{"rev +2µs on b", func(p []*ptp.Link) { p[1].AttackRevNs = 2000 }},
		{"fwd +10µs on c", func(p []*ptp.Link) { p[2].AttackFwdNs = 10000 }},
	}
	for _, tc := range cases {
		paths := mkPaths()
		tc.apply(paths)
		naive := ptp.Sync(master, slave, paths[0], 0)
		rep, err := ptp.Analyze(master, slave, paths, 100, 0)
		if err != nil {
			return "", err
		}
		// Render "-" rather than an empty cell, which would leave a
		// blank column in the report table.
		localized := strings.Join(rep.AttackedPaths, ",")
		if localized == "" {
			localized = "-"
		}
		tb.AddRow(tc.name,
			naive.ErrorNs(),
			rep.Attacked(),
			localized,
			math.Abs(rep.Sync.ErrorNs()),
			rep.UsedPath)
	}
	var b strings.Builder
	b.WriteString(tb.String())
	b.WriteString("\nthe cyclic measurement reads only the master's clock, so clock offsets cancel exactly and\n")
	b.WriteString("the attacker's one-way delay has nowhere to hide.\n")
	return b.String(), nil
}

// RunExpV2X reproduces the authenticated-V2X + pseudonym-privacy story:
// message authentication, escrowed misbehaviour resolution, and the
// rotation/linkability trade-off.
func RunExpV2X(rc *RunContext) (string, error) {
	rng := rc.RNG()
	authSeed := make([]byte, 32)
	rng.Bytes(authSeed)
	authority, err := v2x.NewAuthority(authSeed)
	if err != nil {
		return "", err
	}
	authority.Enroll("av-1")
	authority.Enroll("av-2")
	verifier := &v2x.Verifier{Root: authority.PublicKey(), IsRevoked: authority.Revoked, MaxAge: 10}

	var b strings.Builder
	b.WriteString("§VII-B — authenticated V2X with pseudonym privacy\n\n")

	// Authentication outcomes.
	ps1, err := authority.IssuePseudonyms("av-1", 1, 0, 600, rng)
	if err != nil {
		return "", err
	}
	good, err := v2x.Sign(ps1[0], world.Vec2{X: 100}, 13.9, 42, []byte("cam"))
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "legitimate CAM: verify=%v\n", verifier.Verify(good, 45) == nil)

	rogueSeed := make([]byte, 32)
	rng.Bytes(rogueSeed)
	rogue, err := v2x.NewAuthority(rogueSeed)
	if err != nil {
		return "", err
	}
	rogue.Enroll("evil")
	rp, err := rogue.IssuePseudonyms("evil", 1, 0, 600, rng)
	if err != nil {
		return "", err
	}
	forged, err := v2x.Sign(rp[0], world.Vec2{X: 100}, 13.9, 42, []byte("ghost"))
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "forged CAM (self-made authority): verify=%v\n", verifier.Verify(forged, 45) == nil)

	// Misbehaviour: resolve + revoke.
	vehicle, err := authority.Resolve(ps1[0].ID)
	if err != nil {
		return "", err
	}
	n := authority.RevokeVehicle(vehicle)
	fmt.Fprintf(&b, "misbehaviour report on pseudonym %d → resolved to %s, %d pseudonyms revoked; verify now=%v\n\n",
		ps1[0].ID, vehicle, n, verifier.Verify(good, 46) == nil)

	// Privacy: rotation bounds trajectory linkage.
	tb := rc.Table("pseudonym rotation vs trajectory linkage (1 h drive, CAM every 10 s)",
		"pseudonym-lifetime-s", "segments", "longest-linkable-s", "mean-linkable-s")
	for _, lifetime := range []int64{3600, 900, 300, 60} {
		count := int(3600 / lifetime)
		ps, err := authority.IssuePseudonyms("av-2", count, 0, lifetime, rng)
		if err != nil {
			return "", err
		}
		var obs []v2x.Observation
		for ts := int64(0); ts < 3600; ts += 10 {
			idx := int(ts / lifetime)
			if idx >= len(ps) {
				idx = len(ps) - 1
			}
			obs = append(obs, v2x.Observation{PseudonymID: ps[idx].ID, Timestamp: ts})
		}
		rep := v2x.LinkByPseudonym(obs)
		tb.AddRow(lifetime, rep.Segments, rep.LongestSegmentS, rep.MeanSegmentS)
	}
	b.WriteString(tb.String())
	b.WriteString("\nauthentication stops outsiders (§VII-B) while rotation applies §V-C's data-minimization\n")
	b.WriteString("principle to the vehicle's own broadcasts.\n")
	return b.String(), nil
}

// RunExpOTA reproduces the update-pipeline guarantees behind §IV-A:
// forged, corrupted, downgraded, and bootlooping releases are all
// contained.
func RunExpOTA(rc *RunContext) (string, error) {
	mkSeed := func(b byte) []byte {
		s := make([]byte, 32)
		for i := range s {
			s[i] = b ^ byte(rc.Seed)
		}
		return s
	}
	vendor, err := ota.NewSigner(mkSeed(1))
	if err != nil {
		return "", err
	}
	attacker, err := ota.NewSigner(mkSeed(9))
	if err != nil {
		return "", err
	}
	factoryImg := []byte("fw 1.0")
	dev, err := ota.NewDevice("brake-ctrl", vendor.PublicKey(), vendor.Release("brake-ctrl", "1.0", 1, factoryImg), factoryImg)
	if err != nil {
		return "", err
	}

	tb := rc.Table("§IV-A — OTA update pipeline outcomes",
		"event", "accepted", "running-after")
	try := func(name string, m *ota.Manifest, img []byte, healthy bool) {
		err := dev.Install(m, img)
		if err == nil {
			dev.Boot(func([]byte) bool { return healthy })
		}
		tb.AddRow(name, err == nil, dev.ActiveVersion())
	}
	img2 := []byte("fw 2.0")
	try("legitimate 2.0", vendor.Release("brake-ctrl", "2.0", 2, img2), img2, true)
	malware := []byte("malware")
	try("forged manifest", attacker.Release("brake-ctrl", "6.6", 99, malware), malware, true)
	corrupt := append([]byte(nil), img2...)
	corrupt[0] ^= 1
	try("corrupted image", vendor.Release("brake-ctrl", "2.0c", 3, img2), corrupt, true)
	old := []byte("fw 1.5 vulnerable")
	try("signed downgrade (counter 1)", vendor.Release("brake-ctrl", "1.5", 1, old), old, true)
	loop := []byte("fw 3.0 bootloop")
	try("bootlooping 3.0 (health fail)", vendor.Release("brake-ctrl", "3.0", 4, loop), loop, false)
	fixed := []byte("fw 3.1 fixed")
	try("fixed 3.1", vendor.Release("brake-ctrl", "3.1", 5, fixed), fixed, true)

	var b strings.Builder
	b.WriteString(tb.String())
	b.WriteString("\ndevice log:\n")
	for _, l := range dev.Log {
		fmt.Fprintf(&b, "  %s\n", l)
	}
	return b.String(), nil
}
