package fleet

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// decodeStreamLineRef is the original two-decode line reader, kept as
// the reference decodeStreamLine is pinned against: the type alone
// first, then the whole line as a cellEvent for a cell, or its error
// message for an error event.
func decodeStreamLineRef(line []byte) (cellEvent, error) {
	var head struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(line, &head); err != nil {
		return cellEvent{}, fmt.Errorf("bad stream line %.80q: %v", line, err)
	}
	switch head.Type {
	case "cell":
		var ev cellEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return cellEvent{}, fmt.Errorf("bad cell event %.80q: %v", line, err)
		}
		return ev, nil
	case "error":
		var ev struct {
			Error string `json:"error"`
		}
		json.Unmarshal(line, &ev)
		return cellEvent{Type: head.Type, Error: ev.Error}, nil
	}
	return cellEvent{Type: head.Type}, nil
}

// TestDecodeStreamLineMatchesRef pins the one-pass decoder to the
// reference's verdict on every line: the same error text, or the same
// type and, for what the merger reads (a cell, an error message), the
// same fields.
func TestDecodeStreamLineMatchesRef(t *testing.T) {
	t.Parallel()
	lines := []string{
		`{"type":"cell","id":"fig3","seed":2,"metrics":[{"name":"m","value":-0.5}],"report":"r\n"}`,
		`{"type":"cell","id":"fig3","seed":2,"metrics":[],"error":"skipped: campaign canceled"}`,
		`{"type":"cell","id":"fig3","seed":"2"}`,
		`{"type":"cell","id":"fig3","seed":2,"metrics":[{"name":1,"value":2}]}`,
		`{"type":"cell","seed":1e400}`,
		`{"TYPE":"cell","Id":"fig3","SEED":7}`,
		`{"type":"campaign","experiments":["fig3"],"seeds":[1,2,3],"cells":3,"recheck":0}`,
		`{"type":"summary","text":"table\n"}`,
		`{"type":"done","cells":3,"rechecked":0,"divergences":0,"cache_hits":2,"elapsed_ms":1.5}`,
		`{"type":"done","seed":"x","metrics":{"a":1},"report":7}`,
		`{"type":"error","error":"worker shut down"}`,
		`{"type":"error","error":"boom","seed":"x"}`,
		`{"type":"error","error":5}`,
		`{"type":"error","error":"a","error":5}`,
		`{"seed":"x","type":5}`,
		`{"type":5}`,
		`{"type":"cell","type":5}`,
		`{"type":"done","type":"cell","seed":"x"}`,
		`{"type":null,"seed":"x"}`,
		`5`, `"cell"`, `[1]`, `null`, `{}`, ``, `not json`, `{"type":"cell"`,
		`{"type":"cell","report":"` + strings.Repeat("x", 200) + `"`,
	}
	for _, line := range lines {
		want, wantErr := decodeStreamLineRef([]byte(line))
		var got cellEvent
		gotErr := decodeStreamLine([]byte(line), &got)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%s:\n got error %v\nwant error %v", line, gotErr, wantErr)
			continue
		}
		if wantErr != nil {
			continue
		}
		switch want.Type {
		case "cell":
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s:\n got %+v\nwant %+v", line, got, want)
			}
		default:
			if got.Type != want.Type || (want.Type == "error" && got.Error != want.Error) {
				t.Errorf("%s: got type %q error %q, want type %q error %q", line, got.Type, got.Error, want.Type, want.Error)
			}
		}
	}
}
