package ssi

import (
	"crypto/ed25519"
	"crypto/sha256"
	"fmt"
)

// Registry is the verifiable data registry of §IV: an append-only,
// hash-chained store of DID documents, "immutable, publicly available
// storage" in the paper's words. Updates append new versions; history is
// never rewritten, and the chain head authenticates the whole history.
type Registry struct {
	docs  map[DID][]*Document
	chain [][32]byte // running hash chain over every accepted write
	head  [32]byte
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{docs: make(map[DID][]*Document)}
}

// Register appends the genesis document for a DID. It fails if the DID
// already exists (immutability) or the document is malformed.
func (r *Registry) Register(doc *Document) error {
	if !doc.ID.Valid() {
		return fmt.Errorf("ssi: invalid DID %q", doc.ID)
	}
	if len(doc.PublicKey) != ed25519.PublicKeySize {
		return fmt.Errorf("ssi: document for %s has no usable key", doc.ID)
	}
	if len(r.docs[doc.ID]) > 0 {
		return fmt.Errorf("ssi: %s already registered (registry is append-only)", doc.ID)
	}
	r.append(doc)
	return nil
}

// Update appends a new document version. The update must be signed by
// the current key (or the controller's current key) to be accepted —
// self-sovereignty means only the subject rotates its own keys.
func (r *Registry) Update(doc *Document, sig []byte) error {
	history := r.docs[doc.ID]
	if len(history) == 0 {
		return fmt.Errorf("ssi: %s not registered", doc.ID)
	}
	current := history[len(history)-1]
	if doc.Version != current.Version+1 {
		return fmt.Errorf("ssi: version %d, expected %d", doc.Version, current.Version+1)
	}
	authority := current.PublicKey
	if current.Controller != "" {
		if ctrl, err := r.Resolve(current.Controller); err == nil {
			authority = ctrl.PublicKey
		}
	}
	digest := doc.Hash()
	if !ed25519.Verify(authority, digest[:], sig) {
		return fmt.Errorf("ssi: update of %s not signed by current authority", doc.ID)
	}
	r.append(doc)
	return nil
}

func (r *Registry) append(doc *Document) {
	cp := doc.Clone()
	r.docs[cp.ID] = append(r.docs[cp.ID], cp)
	h := cp.Hash()
	mix := sha256.Sum256(append(r.head[:], h[:]...))
	r.head = mix
	r.chain = append(r.chain, mix)
}

// Resolve returns the latest document for the DID.
func (r *Registry) Resolve(id DID) (*Document, error) {
	history := r.docs[id]
	if len(history) == 0 {
		return nil, fmt.Errorf("ssi: %s not found", id)
	}
	return history[len(history)-1].Clone(), nil
}

// History returns all versions (oldest first).
func (r *Registry) History(id DID) []*Document {
	history := r.docs[id]
	out := make([]*Document, len(history))
	for i, d := range history {
		out[i] = d.Clone()
	}
	return out
}

// Head returns the current chain head; two registries with the same
// writes in the same order have equal heads — the auditability property.
func (r *Registry) Head() [32]byte { return r.head }
