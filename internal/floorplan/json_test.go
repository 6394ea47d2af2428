package floorplan

import (
	"encoding/json"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	fp := SkylakeLike()
	data, err := json.Marshal(fp)
	if err != nil {
		t.Fatal(err)
	}
	var back Floorplan
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.DieW != fp.DieW || back.DieH != fp.DieH {
		t.Fatal("die size round-trip mismatch")
	}
	if len(back.Blocks) != len(fp.Blocks) {
		t.Fatalf("block count %d vs %d", len(back.Blocks), len(fp.Blocks))
	}
	for i := range fp.Blocks {
		if back.Blocks[i] != fp.Blocks[i] {
			t.Fatalf("block %d mismatch: %+v vs %+v", i, back.Blocks[i], fp.Blocks[i])
		}
	}
}

func TestUnmarshalJSONValidates(t *testing.T) {
	// Overlapping blocks must be rejected by the same validation as New.
	in := `{"die_w_m": 0.001, "die_h_m": 0.001, "blocks": [
		{"name": "a", "unit": "ALU", "x_m": 0, "y_m": 0, "w_m": 0.0008, "h_m": 0.0008},
		{"name": "b", "unit": "FPU", "x_m": 0.0004, "y_m": 0.0004, "w_m": 0.0004, "h_m": 0.0004}
	]}`
	var fp Floorplan
	if err := json.Unmarshal([]byte(in), &fp); err == nil {
		t.Fatal("expected overlap error")
	}
}

func TestUnmarshalJSONUnknownUnit(t *testing.T) {
	in := `{"die_w_m": 0.001, "die_h_m": 0.001, "blocks": [
		{"name": "a", "unit": "Nope", "x_m": 0, "y_m": 0, "w_m": 0.0005, "h_m": 0.0005}
	]}`
	var fp Floorplan
	if err := json.Unmarshal([]byte(in), &fp); err == nil {
		t.Fatal("expected unknown-unit error")
	}
}

func TestUnmarshalJSONGarbage(t *testing.T) {
	var fp Floorplan
	if err := fp.UnmarshalJSON([]byte("not json")); err == nil {
		t.Fatal("expected parse error")
	}
}
