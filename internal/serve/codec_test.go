package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/hotgauge/boreas/internal/arch"
)

// referenceDecode is the decoder /v1/decide used before the scanner,
// and the one decodeRequest falls back to.
func referenceDecode(body []byte) (DecideRequest, error) {
	var req DecideRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// sameRequest describes the first difference between two decoded
// requests, comparing floats by bits; "" means equal. Nil and empty
// batches are equal.
func sameRequest(a, b DecideRequest) string {
	if a.Chip != b.Chip {
		return fmt.Sprintf("chip %q vs %q", a.Chip, b.Chip)
	}
	if (a.Observation == nil) != (b.Observation == nil) {
		return fmt.Sprintf("observation nil: %v vs %v", a.Observation == nil, b.Observation == nil)
	}
	if a.Observation != nil {
		if d := sameObservation(*a.Observation, *b.Observation); d != "" {
			return "observation: " + d
		}
	}
	if len(a.Batch) != len(b.Batch) {
		return fmt.Sprintf("batch length %d vs %d", len(a.Batch), len(b.Batch))
	}
	for i := range a.Batch {
		if a.Batch[i].Chip != b.Batch[i].Chip {
			return fmt.Sprintf("batch[%d] chip %q vs %q", i, a.Batch[i].Chip, b.Batch[i].Chip)
		}
		if d := sameObservation(a.Batch[i].Observation, b.Batch[i].Observation); d != "" {
			return fmt.Sprintf("batch[%d]: %s", i, d)
		}
	}
	return ""
}

func sameObservation(a, b Observation) string {
	if math.Float64bits(a.SensorTemp) != math.Float64bits(b.SensorTemp) {
		return fmt.Sprintf("sensor_temp %v vs %v", a.SensorTemp, b.SensorTemp)
	}
	va, vb := reflect.ValueOf(a.Counters), reflect.ValueOf(b.Counters)
	for i := 0; i < va.NumField(); i++ {
		if math.Float64bits(va.Field(i).Float()) != math.Float64bits(vb.Field(i).Float()) {
			return fmt.Sprintf("counter %s %v vs %v", va.Type().Field(i).Name, va.Field(i).Float(), vb.Field(i).Float())
		}
	}
	return ""
}

// fullObservation sets every counter to a distinct value spanning the
// magnitudes json.Marshal writes in both plain and exponent form.
func fullObservation(chip int) Observation {
	o := Observation{SensorTemp: 55.125 + float64(chip)}
	v := reflect.ValueOf(&o.Counters).Elem()
	for i := 0; i < v.NumField(); i++ {
		x := float64(i+1) * 1.0001 * math.Pow(10, float64(i%30-8))
		if i%7 == 3 {
			x = -x
		}
		v.Field(i).SetFloat(x + float64(chip))
	}
	return o
}

// canonicalBodies are json.Marshal encodings of a single request and a
// 64-chip batch, every counter set: the form loadgen and perfbench send.
func canonicalBodies(t *testing.T) (single, batch []byte) {
	t.Helper()
	o := fullObservation(0)
	single, err := json.Marshal(DecideRequest{Chip: "chip-0000", Observation: &o})
	if err != nil {
		t.Fatal(err)
	}
	req := DecideRequest{Batch: make([]DecideItem, 64)}
	for i := range req.Batch {
		req.Batch[i] = DecideItem{Chip: fmt.Sprintf("chip-%04d", i), Observation: fullObservation(i)}
	}
	batch, err = json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return single, batch
}

// TestScanRequestTakesCanonicalBodies pins that json.Marshal output is
// decoded by the scanner itself, not the encoding/json fallback, and
// to the same values the fallback gives. Without it a scanner that
// declined everything would pass every correctness test.
func TestScanRequestTakesCanonicalBodies(t *testing.T) {
	single, batch := canonicalBodies(t)
	for name, body := range map[string][]byte{"single": single, "batch": batch} {
		var got DecideRequest
		if !scanRequest(body, &got) {
			t.Fatalf("%s: canonical body fell back to encoding/json", name)
		}
		want, err := referenceDecode(body)
		if err != nil {
			t.Fatal(err)
		}
		if d := sameRequest(got, want); d != "" {
			t.Fatalf("%s: scanner and encoding/json differ: %s", name, d)
		}
	}
}

// TestScanRequestAllocs pins the decode cost of a 64-chip batch: one
// string per chip ID plus a constant (the batch slice doubles seven
// times on the way to 64 items), whatever the counter count.
func TestScanRequestAllocs(t *testing.T) {
	_, batch := canonicalBodies(t)
	const items, constant = 64, 8
	allocs := testing.AllocsPerRun(20, func() {
		var req DecideRequest
		if !scanRequest(batch, &req) || len(req.Batch) != items {
			t.Fatal("canonical batch not scanned")
		}
	})
	if allocs > items+constant {
		t.Fatalf("64-chip decode allocates %v times, want at most %d", allocs, items+constant)
	}
}

// TestCounterFieldTableCoversCounters fails loudly if arch.Counters
// gains a field the scanner cannot map: a non-float64 field, a tagged
// one, or a 65th.
func TestCounterFieldTableCoversCounters(t *testing.T) {
	ct := reflect.TypeOf(arch.Counters{})
	if ct.NumField() > 64 {
		t.Fatalf("arch.Counters has %d fields; the scanner tracks at most 64", ct.NumField())
	}
	if len(counterField) != ct.NumField() {
		t.Fatalf("key table has %d entries, arch.Counters %d fields", len(counterField), ct.NumField())
	}
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		if f.Type.Kind() != reflect.Float64 {
			t.Errorf("arch.Counters.%s is %s, the scanner decodes float64 only", f.Name, f.Type)
		}
		if j, ok := counterField[f.Name]; !ok || j != i {
			t.Errorf("arch.Counters.%s (field %d) maps to %d, %v in the key table", f.Name, i, j, ok)
		}
	}
}

// codecSeeds are inputs at the scanner's edges: forms it must decline
// (encoding/json then decides them) and forms it must decode exactly.
var codecSeeds = []string{
	// Key casing encoding/json folds.
	`{"chip":"c0","observation":{"SENSOR_TEMP":55}}`,
	`{"chip":"c0","observation":{"sensor_temp":55,"counters":{"ipc":1}}}`,
	`{"chip":"c0","observation":{"sensor_temp":55,"counters":{"totalcycles":1}}}`,
	`{"Chip":"c0","Observation":{"sensor_temp":55}}`,
	`{"BATCH":[{"CHIP":"a","observation":{"sensor_temp":55}}]}`,
	// Duplicate keys at every level.
	`{"chip":"a","chip":"b","observation":{"sensor_temp":55}}`,
	`{"chip":"c0","observation":{"sensor_temp":55},"observation":{"counters":{"TotalCycles":2}}}`,
	`{"batch":[{"chip":"a","observation":{"sensor_temp":50}}],"batch":[{"chip":"b"}]}`,
	`{"batch":[{"chip":"a","chip":"b","observation":{"sensor_temp":50}}]}`,
	`{"batch":[{"chip":"a","observation":{"sensor_temp":50},"observation":{"counters":{"L2Misses":3}}}]}`,
	`{"chip":"c0","observation":{"sensor_temp":55,"sensor_temp":56}}`,
	`{"chip":"c0","observation":{"counters":{"TotalCycles":1},"sensor_temp":55,"counters":{"BusyCycles":2}}}`,
	`{"chip":"c0","observation":{"sensor_temp":55,"counters":{"TotalCycles":1,"TotalCycles":2}}}`,
	// null at every level.
	`{"chip":null,"observation":{"sensor_temp":55}}`,
	`{"chip":"c0","observation":null}`,
	`{"batch":null}`,
	`{"batch":[null]}`,
	`{"chip":"c0","observation":{"sensor_temp":null}}`,
	`{"chip":"c0","observation":{"sensor_temp":55,"counters":null}}`,
	`{"chip":"c0","observation":{"sensor_temp":55,"counters":{"TotalCycles":null}}}`,
	// Escaped, control and non-ASCII chip IDs.
	`{"chip":"c\u0030","observation":{"sensor_temp":55}}`,
	`{"chip":"c\\0","observation":{"sensor_temp":55}}`,
	`{"chip":"c\"0","observation":{"sensor_temp":55}}`,
	"{\"chip\":\"c\t0\",\"observation\":{\"sensor_temp\":55}}",
	`{"chip":"chïp","observation":{"sensor_temp":55}}`,
	"{\"chip\":\"c\xff\",\"observation\":{\"sensor_temp\":55}}",
	`{"batch":[{"chip":"é","observation":{"sensor_temp":55}}]}`,
	// Numbers at the edge of the JSON grammar and of float64.
	`{"chip":"c0","observation":{"sensor_temp":-0}}`,
	`{"chip":"c0","observation":{"sensor_temp":-0.0e0}}`,
	`{"chip":"c0","observation":{"sensor_temp":1e999}}`,
	`{"chip":"c0","observation":{"sensor_temp":1e-999}}`,
	`{"chip":"c0","observation":{"sensor_temp":01}}`,
	`{"chip":"c0","observation":{"sensor_temp":+1}}`,
	`{"chip":"c0","observation":{"sensor_temp":.5}}`,
	`{"chip":"c0","observation":{"sensor_temp":0x10}}`,
	`{"chip":"c0","observation":{"sensor_temp":1_0}}`,
	`{"chip":"c0","observation":{"sensor_temp":inf}}`,
	`{"chip":"c0","observation":{"sensor_temp":1.}}`,
	`{"chip":"c0","observation":{"sensor_temp":1e}}`,
	`{"chip":"c0","observation":{"sensor_temp":-}}`,
	`{"chip":"c0","observation":{"sensor_temp":1E+2,"counters":{"TotalCycles":2.5e-7,"BusyCycles":1.7976931348623157e308}}}`,
	`{"chip":"c0","observation":{"sensor_temp":55,"counters":{"TotalCycles":2.4703282292062327e-324}}}`,
	// Trailing data, whitespace and truncation.
	`{"chip":"c0","observation":{"sensor_temp":55}} x`,
	`{"chip":"c0","observation":{"sensor_temp":55}}{"chip":"c1"}`,
	" \t\r\n{ \"chip\" : \"c0\" , \"observation\" : { \"sensor_temp\" : 55 } } \n",
	`{"chip":"c0","observation":{"sensor_temp":55}`,
	`{"chip":"c0","observation":{"sensor_temp":55},}`,
	`{"batch":[{"chip":"a","observation":{"sensor_temp":50}},]}`,
	`{"batch":[{"chip":"a","observation":{}},{"chip":"b"},{}]}`,
}

// FuzzDecideDecoderMatchesJSON is a differential fuzz of decodeRequest
// against the encoding/json decoder it falls back to: both accept or
// both reject, with equal error text, and an accepted request decodes
// to the same bits either way.
func FuzzDecideDecoderMatchesJSON(f *testing.F) {
	// Short canonical-form seeds: a full 56-counter body is kilobytes,
	// and the fuzzer spends a smoke run's budget minimizing inputs that
	// size. TestScanRequestTakesCanonicalBodies covers full bodies.
	f.Add([]byte(`{"chip":"chip-0000","observation":{"sensor_temp":71.02833711593433,"counters":{"FrequencyGHz":3.75,"Voltage":0.925,"TotalCycles":300000,"BusyCycles":28589.557393205003}}}`))
	f.Add([]byte(`{"batch":[{"chip":"chip-0000","observation":{"sensor_temp":55,"counters":{"FrequencyGHz":3.75,"Voltage":0.925}}},` +
		`{"chip":"chip-0001","observation":{"sensor_temp":6.02e1,"counters":{"EffectiveFPWidth":4,"FrequencyGHz":-1.5e-7}}}]}`))
	for _, s := range append(append([]string{}, decideSeeds...), codecSeeds...) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var got DecideRequest
		gotErr := decodeRequest(body, &got)
		want, wantErr := referenceDecode(body)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("payload %q: decodeRequest error %v, encoding/json error %v", body, gotErr, wantErr)
		case gotErr != nil:
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("payload %q: error %q, encoding/json %q", body, gotErr, wantErr)
			}
		default:
			if d := sameRequest(got, want); d != "" {
				t.Fatalf("payload %q: decodeRequest and encoding/json differ: %s", body, d)
			}
		}
	})
}

// TestCodecSeedsDecline pins that the edge seeds meant for
// encoding/json do reach it: the scanner declines every seed above
// except the few in canonical form.
func TestCodecSeedsDecline(t *testing.T) {
	accepted := map[string]bool{
		`{"chip":"c0","observation":{"sensor_temp":-0}}`:                                                                         true,
		`{"chip":"c0","observation":{"sensor_temp":-0.0e0}}`:                                                                     true,
		`{"chip":"c0","observation":{"sensor_temp":1e-999}}`:                                                                     true,
		`{"chip":"c0","observation":{"sensor_temp":1E+2,"counters":{"TotalCycles":2.5e-7,"BusyCycles":1.7976931348623157e308}}}`: true,
		`{"chip":"c0","observation":{"sensor_temp":55,"counters":{"TotalCycles":2.4703282292062327e-324}}}`:                      true,
		" \t\r\n{ \"chip\" : \"c0\" , \"observation\" : { \"sensor_temp\" : 55 } } \n":                                           true,
		`{"batch":[{"chip":"a","observation":{}},{"chip":"b"},{}]}`:                                                              true,
	}
	for _, s := range codecSeeds {
		var req DecideRequest
		if got := scanRequest([]byte(s), &req); got != accepted[s] {
			t.Errorf("scanRequest(%s) = %v, want %v", strings.TrimSpace(s), got, accepted[s])
		}
	}
}
