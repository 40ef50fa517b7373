package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the decode goldens under testdata/decode/")

// decodeOutcome is what the request path makes of one body: the
// canonical config and its cache hash, or the 400 text a client sees.
func decodeOutcome(t *testing.T, body []byte) string {
	t.Helper()
	var req SimulateRequest
	rec := httptest.NewRecorder()
	hr := httptest.NewRequest("POST", "/v1/simulate", bytes.NewReader(body))
	if code := decodeBody(rec, hr, &req); code != 0 {
		var doc struct{ Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		return "400: " + doc.Error + "\n"
	}
	cfg, err := req.Config()
	if err != nil {
		var reqErr *requestError
		if !errors.As(err, &reqErr) {
			t.Fatalf("error %v is not a requestError (would not map to 400)", err)
		}
		return "400: " + err.Error() + "\n"
	}
	canon, err := cfg.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := cfg.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return "canonical: " + string(canon) + "\nhash: " + hash + "\n"
}

// TestDecodeGoldens pins the wire-to-config mapping: every body under
// testdata/decode must decode to the same canonical config and cache
// hash (or the same 400 text) as its .golden file. A drift here splits
// the result cache or changes what a client is told, so regenerate
// with -update only when that is intended.
func TestDecodeGoldens(t *testing.T) {
	bodies, err := filepath.Glob(filepath.Join("testdata", "decode", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bodies) == 0 {
		t.Fatal("no request bodies under testdata/decode")
	}
	sort.Strings(bodies)
	for _, path := range bodies {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			body, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got := decodeOutcome(t, body)
			golden := strings.TrimSuffix(path, ".json") + ".golden"
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if got != string(want) {
				t.Fatalf("decode drifted for %s:\n got: %s\nwant: %s", path, got, want)
			}
		})
	}
}
