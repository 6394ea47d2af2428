package floorplan

import (
	"encoding/json"
	"fmt"
)

// jsonFloorplan is the serialised form: dimensions in metres, blocks with
// unit names rather than enum values so files survive enum reordering.
type jsonFloorplan struct {
	DieW   float64     `json:"die_w_m"`
	DieH   float64     `json:"die_h_m"`
	Blocks []jsonBlock `json:"blocks"`
}

type jsonBlock struct {
	Name string  `json:"name"`
	Unit string  `json:"unit"`
	X    float64 `json:"x_m"`
	Y    float64 `json:"y_m"`
	W    float64 `json:"w_m"`
	H    float64 `json:"h_m"`
}

// UnitByName resolves a serialised unit name to its Unit value.
func UnitByName(name string) (Unit, error) {
	for u := Unit(0); int(u) < NumUnits; u++ {
		if u.String() == name {
			return u, nil
		}
	}
	return 0, fmt.Errorf("floorplan: unknown unit %q", name)
}

// unitByName is the historical unexported spelling.
func unitByName(name string) (Unit, error) { return UnitByName(name) }

// MarshalJSON serialises the floorplan, so a Floorplan can be embedded in
// larger documents (platform scenario files) and custom layouts edited
// outside Go.
func (fp *Floorplan) MarshalJSON() ([]byte, error) {
	out := jsonFloorplan{DieW: fp.DieW, DieH: fp.DieH}
	for _, b := range fp.Blocks {
		out.Blocks = append(out.Blocks, jsonBlock{
			Name: b.Name, Unit: b.Unit.String(),
			X: b.Rect.X, Y: b.Rect.Y, W: b.Rect.W, H: b.Rect.H,
		})
	}
	return json.Marshal(out)
}

// UnmarshalJSON parses and fully validates an embedded floorplan, written
// by MarshalJSON or authored by hand in the same schema.
func (fp *Floorplan) UnmarshalJSON(data []byte) error {
	var in jsonFloorplan
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("floorplan: parsing JSON: %w", err)
	}
	blocks := make([]Block, 0, len(in.Blocks))
	for _, b := range in.Blocks {
		u, err := unitByName(b.Unit)
		if err != nil {
			return err
		}
		blocks = append(blocks, Block{
			Name: b.Name, Unit: u,
			Rect: Rect{X: b.X, Y: b.Y, W: b.W, H: b.H},
		})
	}
	built, err := New(in.DieW, in.DieH, blocks)
	if err != nil {
		return err
	}
	*fp = *built
	return nil
}
