package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"autosec/internal/server"
)

// decodeStreamLineRef is the original two-decode line reader, kept as
// the reference decodeStreamLine is pinned against: the type alone
// first, then the whole line as a server.CellEvent for a cell, or its error
// message for an error event.
func decodeStreamLineRef(line []byte) (server.CellEvent, error) {
	var head struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(line, &head); err != nil {
		return server.CellEvent{}, fmt.Errorf("bad stream line %.80q: %v", line, err)
	}
	switch head.Type {
	case "cell":
		var ev server.CellEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return server.CellEvent{}, fmt.Errorf("bad cell event %.80q: %v", line, err)
		}
		return ev, nil
	case "error":
		var ev struct {
			Error string `json:"error"`
		}
		json.Unmarshal(line, &ev)
		return server.CellEvent{Type: head.Type, Error: ev.Error}, nil
	}
	return server.CellEvent{Type: head.Type}, nil
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
		var got server.CellEvent
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

// TestChunkRequestBytes pins the body of a chunk request: only the
// fields the coordinator sets, recheck always 0 and reports always
// included, so a worker sees the same bytes whichever type marshals it.
func TestChunkRequestBytes(t *testing.T) {
	t.Parallel()
	off := false
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{}, `{"ids":["fig3"],"seeds":[42,43],"recheck":0,"include_reports":true}`},
		{Config{Jobs: 2, Cache: &off, ChunkTimeout: 1500 * time.Millisecond},
			`{"ids":["fig3"],"seeds":[42,43],"jobs":2,"recheck":0,"cache":false,"include_reports":true,"deadline_ms":1500}`},
	} {
		var bodies []string
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/api/v1/health" {
				json.NewEncoder(w).Encode(server.Health{Status: "ok", CodeVersion: "v", Jobs: 1})
				return
			}
			b, _ := io.ReadAll(r.Body)
			bodies = append(bodies, string(b))
			for _, seed := range []int64{42, 43} {
				fmt.Fprintf(w, `{"type":"cell","id":"fig3","seed":%d,"metrics":[]}`+"\n", seed)
			}
		}))
		cfg := tc.cfg
		cfg.Workers, cfg.IDs, cfg.Seeds = []string{ts.URL}, []string{"fig3"}, []int64{42, 43}
		cfg.ChunkSize, cfg.Client = 2, ts.Client()
		_, err := Run(context.Background(), cfg)
		ts.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(bodies) != 1 || bodies[0] != tc.want {
			t.Errorf("chunk request bodies = %q, want [%q]", bodies, tc.want)
		}
	}
}
