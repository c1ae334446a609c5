package fleet_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"autosec/internal/campaign"
	"autosec/internal/fleet"
	"autosec/internal/server"
)

// FuzzFleetStream feeds arbitrary bytes to the coordinator's NDJSON
// stream merger. A fake worker serves a real daemon's health document
// and answers every chunk request with the fuzzed bytes. Whatever the
// stream holds, fleet.Run must return without panicking, the report
// must hold the full grid in grid order, and OnCell must see every
// grid cell exactly once, in grid order.
func FuzzFleetStream(f *testing.F) {
	s, err := server.New(workerConfig(f, ""))
	if err != nil {
		f.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/health", nil))
	if rec.Code != http.StatusOK {
		f.Fatalf("health: HTTP %d", rec.Code)
	}
	health := rec.Body.Bytes()

	const id = "fig3"
	seeds := []int64{1, 2, 3}
	cell := func(id string, seed int64, report string) string {
		return fmt.Sprintf(`{"type":"cell","id":%q,"seed":%d,"metrics":[{"name":"m","value":%d}],"report":%q}`+"\n", id, seed, seed, report)
	}
	c1, c2, c3 := cell(id, 1, "r1"), cell(id, 2, "r2"), cell(id, 3, "r3")
	head := `{"type":"campaign","experiments":["fig3"],"seeds":[1,2,3],"cells":3,"recheck":0}` + "\n"
	done := `{"type":"done","cells":3,"rechecked":0,"divergences":0}` + "\n"
	// Older daemons streamed a summary event; the merger passes over it.
	summary := `{"type":"summary","text":"table\n"}` + "\n"
	for _, seed := range []string{
		head + c1 + c2 + c3 + done,                          // valid
		head + c1 + c2 + c3 + summary + done,                // an event the merger passes over
		c1 + c2[:len(c2)/2],                                 // truncated mid-line
		c1 + c1 + c2 + c3,                                   // duplicated cell
		c2 + c1 + c3,                                        // reordered
		c1 + cell("fig4", 2, "r2") + c3,                     // wrong id
		c1 + cell(id, 2, strings.Repeat("x", 100<<10)) + c3, // oversized: past the scanner's initial buffer
		c1 + `{"type":"cell","id":"fig3","seed":2,"error":"skipped: campaign canceled"}` + "\n" + c3,
		c1 + `{"type":"error","error":"worker shut down"}` + "\n",
		head + `{"type":"done","seed":"x","metrics":{}}` + "\n" + c1, // a non-cell line that does not fit a cell event
		c1 + `{"type":"cell","id":"fig3","seed":"2"}` + "\n",         // a cell line that does not
		"not json\n",
		"",
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, stream []byte) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/api/v1/health" {
				w.Write(health)
				return
			}
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Write(stream)
		}))
		defer ts.Close()

		var seen []campaign.CellResult
		rep, err := fleet.Run(context.Background(), fleet.Config{
			Workers: []string{ts.URL}, IDs: []string{id}, Seeds: seeds,
			// One chunk per pass, and every cell rechecked: the same
			// stream answers the primary and the recheck chunk.
			Recheck: 1, InFlight: 2, ChunkTimeout: 5 * time.Second, Client: ts.Client(),
			OnCell: func(c campaign.CellResult) { seen = append(seen, c) },
		})
		if rep == nil {
			t.Fatalf("fleet.Run returned no report: %v", err)
		}
		var want []string
		for _, seed := range seeds {
			want = append(want, fmt.Sprintf("%s/%d", id, seed))
		}
		if got := cellOrder(rep.Result.Cells); !equalStrings(got, want) {
			t.Errorf("report grid = %v, want %v", got, want)
		}
		if got := cellOrder(seen); !equalStrings(got, want) {
			t.Errorf("OnCell saw %v, want %v", got, want)
		}
	})
}
