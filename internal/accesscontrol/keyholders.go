package accesscontrol

import (
	"fmt"
	"sort"

	"autosec/internal/sim"
	"autosec/internal/vcrypto"
)

// This file builds the SeeMQTT-style end-to-end flow on top of Shamir
// sharing: a data owner encrypts a payload under a one-time key, splits
// the key among independent keyholders, and attaches a policy. Each
// keyholder independently evaluates the policy before releasing its
// share to a requester; the broker in the middle never sees the key.

// Policy is the owner's access rule: the set of consumer identities
// allowed, plus an expiry.
type Policy struct {
	Allowed   map[string]bool
	ExpiresAt int64 // simulation seconds; 0 = never
}

// Allows evaluates the policy.
func (p *Policy) Allows(consumer string, now int64) bool {
	if p.ExpiresAt != 0 && now > p.ExpiresAt {
		return false
	}
	return p.Allowed[consumer]
}

// SealedMessage is the published object: ciphertext plus metadata. The
// key itself exists only as shares at the keyholders.
type SealedMessage struct {
	ID         string
	Owner      string
	Ciphertext []byte
	Threshold  int
	Holders    []string
}

// Keyholder is one trusted share custodian (e.g. operated by a distinct
// stakeholder).
type Keyholder struct {
	Name     string
	shares   map[string]Share   // message ID → share
	policies map[string]*Policy // message ID → policy copy
	// Compromised simulates a keyholder under attacker control: it
	// releases shares to anyone.
	Compromised bool
	// Released counts share handouts (audit).
	Released int
}

// NewKeyholder creates an empty custodian.
func NewKeyholder(name string) *Keyholder {
	return &Keyholder{Name: name, shares: map[string]Share{}, policies: map[string]*Policy{}}
}

// store is called by the owner during publication.
func (k *Keyholder) store(msgID string, share Share, policy *Policy) {
	k.shares[msgID] = share
	k.policies[msgID] = policy
}

// Request asks the keyholder for its share of a message.
func (k *Keyholder) Request(msgID, consumer string, now int64) (Share, error) {
	share, ok := k.shares[msgID]
	if !ok {
		return Share{}, fmt.Errorf("accesscontrol: %s has no share of %s", k.Name, msgID)
	}
	if !k.Compromised {
		policy := k.policies[msgID]
		if policy == nil || !policy.Allows(consumer, now) {
			return Share{}, fmt.Errorf("accesscontrol: %s denies %s access to %s", k.Name, consumer, msgID)
		}
	}
	k.Released++
	return share, nil
}

// Revoke removes the owner's grant at this keyholder.
func (k *Keyholder) Revoke(msgID, consumer string) {
	if p := k.policies[msgID]; p != nil {
		delete(p.Allowed, consumer)
	}
}

// Owner publishes protected messages.
type Owner struct {
	Name string
	rng  *sim.RNG
	seq  int
}

// NewOwner creates a publisher.
func NewOwner(name string, rng *sim.RNG) *Owner {
	return &Owner{Name: name, rng: rng}
}

// Publish encrypts payload under a fresh key, splits the key t-of-n
// among the holders, installs an independent policy copy at each, and
// returns the sealed message.
func (o *Owner) Publish(payload []byte, holders []*Keyholder, t int, allowed []string, expiresAt int64) (*SealedMessage, error) {
	if len(holders) < t {
		return nil, fmt.Errorf("accesscontrol: %d holders below threshold %d", len(holders), t)
	}
	key := make([]byte, 16)
	o.rng.Bytes(key)
	o.seq++
	msgID := fmt.Sprintf("%s/%d", o.Name, o.seq)

	gcm, err := vcrypto.NewGCM(key)
	if err != nil {
		return nil, err
	}
	ct := gcm.Seal(nil, 0, uint32(o.seq), []byte(msgID), payload)
	shares, err := Split(key, len(holders), t, o.rng)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(holders))
	for i, h := range holders {
		// Every keyholder gets an independent policy copy, so a single
		// tampered holder cannot widen access for the others.
		policy := &Policy{Allowed: map[string]bool{}, ExpiresAt: expiresAt}
		for _, c := range allowed {
			policy.Allowed[c] = true
		}
		h.store(msgID, shares[i], policy)
		names[i] = h.Name
	}
	sort.Strings(names)
	return &SealedMessage{ID: msgID, Owner: o.Name, Ciphertext: ct, Threshold: t, Holders: names}, nil
}

// Retrieve is the consumer side: collect shares from the given holders,
// reconstruct the key, decrypt. It returns the payload or an error
// naming what failed (policy denial, not enough shares, bad key).
func Retrieve(msg *SealedMessage, consumer string, holders []*Keyholder, now int64) ([]byte, error) {
	var got []Share
	var denials []string
	for _, h := range holders {
		share, err := h.Request(msg.ID, consumer, now)
		if err != nil {
			denials = append(denials, h.Name)
			continue
		}
		got = append(got, share)
		if len(got) == msg.Threshold {
			break
		}
	}
	if len(got) < msg.Threshold {
		return nil, fmt.Errorf("accesscontrol: only %d of %d required shares (denied by %v)", len(got), msg.Threshold, denials)
	}
	key, err := Combine(got)
	if err != nil {
		return nil, err
	}
	var seq uint32
	fmt.Sscanf(msg.ID[len(msg.Owner)+1:], "%d", &seq)
	gcm, err := vcrypto.NewGCM(key)
	if err != nil {
		return nil, fmt.Errorf("accesscontrol: reconstructed key failed to decrypt: %w", err)
	}
	payload, err := gcm.Open(nil, 0, seq, []byte(msg.ID), msg.Ciphertext)
	if err != nil {
		return nil, fmt.Errorf("accesscontrol: reconstructed key failed to decrypt: %w", err)
	}
	return payload, nil
}
