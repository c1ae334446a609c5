package server

import (
	"encoding/json"
	"reflect"
	"testing"

	"autosec/internal/ext"
	_ "autosec/internal/ext/demo" // the noop-mac suite and jam attack drop-ins
)

// TestExtensionsEndpointMatchesCatalog pins the no-drift property the
// extension registry was built for: GET /api/v1/extensions serves
// ext.Catalog() verbatim — the same document `avsec ext -json` renders
// — so any binary's CLI and daemon listings are identical sets by
// construction. The catalog holds exactly the two drop-in kinds, with
// the linked demo drop-ins, and neither document carries an extension
// fingerprint.
func TestExtensionsEndpointMatchesCatalog(t *testing.T) {
	t.Parallel()
	ts := newTestServer(t, testConfig(t))

	var raw map[string]json.RawMessage
	getJSON(t, ts.URL+"/api/v1/extensions", &raw)
	if _, ok := raw["fingerprint"]; ok {
		t.Error("catalog document carries a fingerprint key")
	}
	var got []ext.Meta
	if err := json.Unmarshal(raw["extensions"], &got); err != nil {
		t.Fatal(err)
	}
	if want := ext.Catalog().Extensions; !reflect.DeepEqual(got, want) {
		t.Errorf("served catalog diverges from ext.Catalog():\n got %d entries\nwant %d entries", len(got), len(want))
	}

	kinds := map[string]bool{}
	names := map[string]string{}
	for _, m := range got {
		kinds[m.Kind] = true
		names[m.Name] = m.Kind
	}
	if want := map[string]bool{"attack": true, "suite": true}; !reflect.DeepEqual(kinds, want) {
		t.Errorf("catalog kinds = %v, want exactly attack and suite", kinds)
	}
	if names["noop-mac"] != "suite" || names["jam"] != "attack" {
		t.Errorf("demo drop-ins missing from the catalog: noop-mac=%q jam=%q", names["noop-mac"], names["jam"])
	}

	var health map[string]json.RawMessage
	getJSON(t, ts.URL+"/api/v1/health", &health)
	if _, ok := health["extensions"]; ok {
		t.Error("health document carries an extensions key")
	}
}
