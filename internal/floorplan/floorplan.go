// Package floorplan models the physical layout of the simulated processor
// die: a set of rectangular functional-unit blocks positioned on a die of
// known dimensions.
//
// The default floorplan is a Skylake-class desktop core scaled to a 7 nm
// process, matching the system modelled by HotGauge and used in the Boreas
// paper. The core occupies the centre of the die; the surrounding area is
// last-level cache and uncore, which stays near-idle in the single-active-
// core experiments the paper runs.
//
// All geometry is in metres, with the origin at the lower-left corner of
// the die.
package floorplan

import (
	"fmt"
	"sort"
)

// Unit identifies the micro-architectural role of a block. Power and
// activity mapping key off the Unit, so several blocks may share one Unit
// (e.g. the four ALU blocks).
type Unit int

const (
	UnitL1I Unit = iota
	UnitIFU
	UnitBPU
	UnitITLB
	UnitDecode
	UnitUopCache
	UnitRename
	UnitROB
	UnitIntRF
	UnitScheduler
	UnitFpRF
	UnitBTB
	UnitALU
	UnitMUL
	UnitDIV
	UnitFPU
	UnitLSU
	UnitDTLB
	UnitL1D
	UnitL2
	UnitUncore
	unitCount
)

var unitNames = [...]string{
	UnitL1I:       "L1I",
	UnitIFU:       "IFU",
	UnitBPU:       "BPU",
	UnitITLB:      "ITLB",
	UnitDecode:    "Decode",
	UnitUopCache:  "UopCache",
	UnitRename:    "Rename",
	UnitROB:       "ROB",
	UnitIntRF:     "IntRF",
	UnitScheduler: "Scheduler",
	UnitFpRF:      "FpRF",
	UnitBTB:       "BTB",
	UnitALU:       "ALU",
	UnitMUL:       "MUL",
	UnitDIV:       "DIV",
	UnitFPU:       "FPU",
	UnitLSU:       "LSU",
	UnitDTLB:      "DTLB",
	UnitL1D:       "L1D",
	UnitL2:        "L2",
	UnitUncore:    "Uncore",
}

// String returns the canonical unit name.
func (u Unit) String() string {
	if u < 0 || int(u) >= len(unitNames) {
		return fmt.Sprintf("Unit(%d)", int(u))
	}
	return unitNames[u]
}

// NumUnits is the number of distinct unit kinds.
const NumUnits = int(unitCount)

// Rect is an axis-aligned rectangle: origin (X, Y), size (W, H), metres.
type Rect struct {
	X, Y, W, H float64
}

// Area returns the rectangle area in m².
func (r Rect) Area() float64 { return r.W * r.H }

// Contains reports whether the point (x, y) lies inside the rectangle
// (inclusive of the lower/left edge, exclusive of the upper/right edge, so
// adjacent rectangles partition the plane without double-claiming points).
func (r Rect) Contains(x, y float64) bool {
	return x >= r.X && x < r.X+r.W && y >= r.Y && y < r.Y+r.H
}

// Overlaps reports whether two rectangles overlap with positive area.
func (r Rect) Overlaps(o Rect) bool {
	return r.X < o.X+o.W && o.X < r.X+r.W && r.Y < o.Y+o.H && o.Y < r.Y+r.H
}

// Block is a named functional-unit rectangle on the die.
type Block struct {
	Name string
	Unit Unit
	Rect Rect
}

// Floorplan is a complete die layout.
type Floorplan struct {
	// DieW, DieH are the die dimensions in metres.
	DieW, DieH float64
	// Blocks partition the die area.
	Blocks []Block

	byName map[string]int
}

// New constructs a floorplan and validates it: blocks must lie within the
// die, must not overlap, and names must be unique.
func New(dieW, dieH float64, blocks []Block) (*Floorplan, error) {
	if dieW <= 0 || dieH <= 0 {
		return nil, fmt.Errorf("floorplan: non-positive die size %g x %g", dieW, dieH)
	}
	fp := &Floorplan{DieW: dieW, DieH: dieH, Blocks: blocks, byName: make(map[string]int, len(blocks))}
	const eps = 1e-12
	for i, b := range blocks {
		if b.Rect.W <= 0 || b.Rect.H <= 0 {
			return nil, fmt.Errorf("floorplan: block %q has non-positive size", b.Name)
		}
		if b.Rect.X < -eps || b.Rect.Y < -eps ||
			b.Rect.X+b.Rect.W > dieW+eps || b.Rect.Y+b.Rect.H > dieH+eps {
			return nil, fmt.Errorf("floorplan: block %q exceeds die bounds", b.Name)
		}
		if _, dup := fp.byName[b.Name]; dup {
			return nil, fmt.Errorf("floorplan: duplicate block name %q", b.Name)
		}
		fp.byName[b.Name] = i
		for j := 0; j < i; j++ {
			if shrink(b.Rect, eps).Overlaps(shrink(blocks[j].Rect, eps)) {
				return nil, fmt.Errorf("floorplan: blocks %q and %q overlap", b.Name, blocks[j].Name)
			}
		}
	}
	return fp, nil
}

func shrink(r Rect, eps float64) Rect {
	return Rect{X: r.X + eps, Y: r.Y + eps, W: r.W - 2*eps, H: r.H - 2*eps}
}

// BlockIndex returns the index of the named block, or -1.
func (fp *Floorplan) BlockIndex(name string) int {
	if i, ok := fp.byName[name]; ok {
		return i
	}
	return -1
}

// BlockAt returns the index of the block containing point (x, y), or -1 if
// the point falls in a gap or outside the die.
func (fp *Floorplan) BlockAt(x, y float64) int {
	for i := range fp.Blocks {
		if fp.Blocks[i].Rect.Contains(x, y) {
			return i
		}
	}
	return -1
}

// UnitBlocks returns the indices of all blocks of the given unit kind.
func (fp *Floorplan) UnitBlocks(u Unit) []int {
	var out []int
	for i := range fp.Blocks {
		if fp.Blocks[i].Unit == u {
			out = append(out, i)
		}
	}
	return out
}

// UnitArea returns the total area of all blocks of the given unit in m².
func (fp *Floorplan) UnitArea(u Unit) float64 {
	a := 0.0
	for i := range fp.Blocks {
		if fp.Blocks[i].Unit == u {
			a += fp.Blocks[i].Rect.Area()
		}
	}
	return a
}

// TotalBlockArea returns the summed area of all blocks in m².
func (fp *Floorplan) TotalBlockArea() float64 {
	a := 0.0
	for i := range fp.Blocks {
		a += fp.Blocks[i].Rect.Area()
	}
	return a
}

// Coverage returns the fraction of die area claimed by blocks (1.0 means
// the blocks exactly tile the die).
func (fp *Floorplan) Coverage() float64 {
	return fp.TotalBlockArea() / (fp.DieW * fp.DieH)
}

// Names returns all block names sorted alphabetically.
func (fp *Floorplan) Names() []string {
	names := make([]string, 0, len(fp.Blocks))
	for i := range fp.Blocks {
		names = append(names, fp.Blocks[i].Name)
	}
	sort.Strings(names)
	return names
}

// Millimetre scales literals below for readability.
const mm = 1e-3

// SkylakeLike returns the default floorplan: a 3.0 x 2.0 mm Skylake-class
// core scaled to 7 nm, centred on a 4.0 x 3.0 mm die whose remaining ring
// is LLC/uncore. Block proportions follow die-shot-style layouts: front
// end along the top edge, rename/ROB/scheduler mid-core, the execution
// cluster (ALUs, MUL/DIV, wide FPU) below it, and the memory subsystem
// (LSU, L1D) above the L2 strip at the bottom. The execution row is the
// hotspot-prone region; the paper's preferred sensor (tsens03) sits there.
func SkylakeLike() *Floorplan {
	// Core origin within the die.
	const ox, oy = 0.5 * mm, 0.5 * mm
	b := func(name string, u Unit, x, y, w, h float64) Block {
		return Block{Name: name, Unit: u, Rect: Rect{X: ox + x*mm, Y: oy + y*mm, W: w * mm, H: h * mm}}
	}
	blocks := []Block{
		// Front end (top row, y in [1.6, 2.0)).
		b("L1I", UnitL1I, 0, 1.6, 0.8, 0.4),
		b("IFU", UnitIFU, 0.8, 1.6, 0.5, 0.4),
		b("BPU", UnitBPU, 1.3, 1.6, 0.4, 0.4),
		b("ITLB", UnitITLB, 1.7, 1.6, 0.3, 0.4),
		b("Decode", UnitDecode, 2.0, 1.6, 0.5, 0.4),
		b("UopCache", UnitUopCache, 2.5, 1.6, 0.5, 0.4),
		// Out-of-order engine (y in [1.2, 1.6)).
		b("Rename", UnitRename, 0, 1.2, 0.5, 0.4),
		b("ROB", UnitROB, 0.5, 1.2, 0.5, 0.4),
		b("IntRF", UnitIntRF, 1.0, 1.2, 0.4, 0.4),
		b("Scheduler", UnitScheduler, 1.4, 1.2, 0.5, 0.4),
		b("FpRF", UnitFpRF, 1.9, 1.2, 0.4, 0.4),
		b("BTB", UnitBTB, 2.3, 1.2, 0.7, 0.4),
		// Execution cluster (y in [0.8, 1.2)) - the hotspot row.
		b("ALU0", UnitALU, 0, 0.8, 0.35, 0.4),
		b("ALU1", UnitALU, 0.35, 0.8, 0.35, 0.4),
		b("ALU2", UnitALU, 0.7, 0.8, 0.35, 0.4),
		b("ALU3", UnitALU, 1.05, 0.8, 0.35, 0.4),
		b("MUL", UnitMUL, 1.4, 0.8, 0.4, 0.4),
		b("DIV", UnitDIV, 1.8, 0.8, 0.3, 0.4),
		b("FPU", UnitFPU, 2.1, 0.8, 0.9, 0.4),
		// Memory subsystem (y in [0.4, 0.8)).
		b("LSU", UnitLSU, 0, 0.4, 0.7, 0.4),
		b("DTLB", UnitDTLB, 0.7, 0.4, 0.3, 0.4),
		b("L1D", UnitL1D, 1.0, 0.4, 1.0, 0.4),
		b("L2Ctl", UnitL2, 2.0, 0.4, 1.0, 0.4),
		// L2 strip (y in [0, 0.4)).
		b("L2", UnitL2, 0, 0, 3.0, 0.4),
	}
	// Uncore ring: four rectangles tiling the die minus the core.
	blocks = append(blocks,
		Block{Name: "UncoreS", Unit: UnitUncore, Rect: Rect{X: 0, Y: 0, W: 4.0 * mm, H: 0.5 * mm}},
		Block{Name: "UncoreN", Unit: UnitUncore, Rect: Rect{X: 0, Y: 2.5 * mm, W: 4.0 * mm, H: 0.5 * mm}},
		Block{Name: "UncoreW", Unit: UnitUncore, Rect: Rect{X: 0, Y: 0.5 * mm, W: 0.5 * mm, H: 2.0 * mm}},
		Block{Name: "UncoreE", Unit: UnitUncore, Rect: Rect{X: 3.5 * mm, Y: 0.5 * mm, W: 0.5 * mm, H: 2.0 * mm}},
	)
	fp, err := New(4.0*mm, 3.0*mm, blocks)
	if err != nil {
		panic("floorplan: invalid built-in SkylakeLike layout: " + err.Error())
	}
	return fp
}
