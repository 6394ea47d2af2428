package serve_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/serve"
)

// Example shows the daemon's client path and wire format end to end:
// dial a server, request a single decision, request a batched decision,
// and list the live sessions. The registry runs a fixed clock so the
// output is stable; a real deployment only swaps the controller (a
// trained ML guardband controller instead of fixed-max) and the
// listener (boreas serve instead of httptest).
func Example() {
	reg, err := serve.NewRegistry(serve.RegistryConfig{
		Controller: &control.FixedController{ControllerName: "fixed-max", Frequency: 4.0},
		StartFreq:  3.75,
		Clock:      func() time.Time { return time.Unix(0, 0).UTC() },
	})
	if err != nil {
		panic(err)
	}
	ts := httptest.NewServer(serve.NewHandler(reg))
	defer ts.Close()

	post := func(body string) string {
		resp, err := http.Post(ts.URL+"/v1/decide", "application/json", strings.NewReader(body))
		if err != nil {
			panic(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}

	// A single observation: chip ID plus the sensor reading and (Go
	// field-named) telemetry counters of the interval that just ended.
	fmt.Print(post(`{"chip":"c0","observation":{"sensor_temp":55,"counters":{"FrequencyGHz":3.75,"BusyCycles":2.1e5}}}`))

	// A batch amortises one HTTP round trip across many chips;
	// decisions come back in request order.
	fmt.Print(post(`{"batch":[
		{"chip":"c0","observation":{"sensor_temp":56}},
		{"chip":"c1","observation":{"sensor_temp":61}}
	]}`))

	// The sessions listing snapshots every chip the daemon has seen.
	resp, err := http.Get(ts.URL + "/v1/sessions")
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Sessions []serve.SessionInfo `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		panic(err)
	}
	for _, s := range listing.Sessions {
		fmt.Printf("%s: controller %s, tick %d, freq %.2f GHz\n", s.Chip, s.Controller, s.Tick, s.Freq)
	}

	// Output:
	// {"decision":{"chip":"c0","freq_ghz":4,"raw_ghz":4,"tick":0}}
	// {"decisions":[{"chip":"c0","freq_ghz":4,"raw_ghz":4,"tick":1},{"chip":"c1","freq_ghz":4,"raw_ghz":4,"tick":0}]}
	// c0: controller fixed-max, tick 2, freq 4.00 GHz
	// c1: controller fixed-max, tick 1, freq 4.00 GHz
}
