package serve

import (
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// decideSeeds are the /v1/decide payload seeds both fuzzers start from.
var decideSeeds = []string{
	`{"chip":"c0","observation":{"sensor_temp":55}}`,
	`{"chip":"c0","observation":{"sensor_temp":55,"counters":{"IPC":1.5,"Power":12.5}}}`,
	`{"batch":[{"chip":"a","observation":{"sensor_temp":50}},{"chip":"b","observation":{"sensor_temp":60}}]}`,
	`{"batch":[]}`,
	`{}`,
	``,
	`null`,
	`[]`,
	`"decide"`,
	`{"chip":"c0"}`,
	`{"observation":{"sensor_temp":55}}`,
	`{"chip":"","observation":{"sensor_temp":55}}`,
	`{"chip":"c0","observation":{"sensor_temp":1e999}}`,
	`{"chip":"c0","observation":{"sensor_temp":-1e999}}`,
	`{"chip":"c0","observation":{"sensor_temp":55},"batch":[{"chip":"b","observation":{"sensor_temp":50}}]}`,
	`{"chip":"c0","observation":{"sensor_temp":55,"counters":{"NoSuchCounter":1}}}`,
	`{"chip":"c0","observation":{"sensor_temp":"hot"}}`,
	`{"batch":[{"chip":"a","observation":null}]}`,
	`{"batch":` + strings.Repeat(`[`, 100) + strings.Repeat(`]`, 100) + `}`,
	"\x00\xff\xfe",
}

// FuzzDecodeDecideRequest drives arbitrary payloads through the full
// /v1/decide path — decoder, validation, registry, response encoding —
// end-to-end through the handler. The contract under fuzz: no payload
// may panic the handler or surface as a 500 (the recover middleware
// turns a panic into a 500, so asserting "never 500" also asserts
// "never panics"); everything is answered 200 or 400.
func FuzzDecodeDecideRequest(f *testing.F) {
	for _, s := range decideSeeds {
		f.Add([]byte(s))
	}

	ctrl := &countingController{name: "fuzz", clones: &atomic.Int64{}}
	reg, err := NewRegistry(RegistryConfig{Controller: ctrl, StartFreq: 3.75})
	if err != nil {
		f.Fatal(err)
	}
	handler := NewHandler(reg)

	f.Fuzz(func(t *testing.T, payload []byte) {
		req := httptest.NewRequest("POST", "/v1/decide", strings.NewReader(string(payload)))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if code := rec.Code; code != 200 && code != 400 {
			t.Fatalf("payload %q: status %d (body %s), want 200 or 400", payload, code, rec.Body.String())
		}
	})
}
