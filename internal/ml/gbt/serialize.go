package gbt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary model format: a compact little-endian encoding. Thresholds,
// leaf values and gains are stored as float64, so save→load is
// bit-exact. The retired version 1 ("BGT1") stored them as float32,
// which could route a reloaded model's samples across a truncated
// threshold; such files are rejected. (The paper's hardware-cost
// accounting of one 32-bit word per node lives in WeightBytes and is
// unaffected by the file format.)
const (
	magicBGT1 = 0x42475431 // "BGT1": retired float32 node payload, rejected
	magicV2   = 0x42475432 // "BGT2": float64 node payload, written by WriteTo
)

// WriteTo serialises the model.
func (m *Model) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	put := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if err := put(uint32(magicV2)); err != nil {
		return n, err
	}
	hdr := []uint32{uint32(m.Params.NumTrees), uint32(m.Params.MaxDepth), uint32(len(m.FeatureNames)), uint32(len(m.Trees))}
	for _, v := range hdr {
		if err := put(v); err != nil {
			return n, err
		}
	}
	for _, f := range []float64{m.Params.LearningRate, m.Params.Gamma, m.Params.Lambda, m.Params.MinChildWeight, m.Base} {
		if err := put(f); err != nil {
			return n, err
		}
	}
	for _, name := range m.FeatureNames {
		if err := put(uint16(len(name))); err != nil {
			return n, err
		}
		if _, err := bw.WriteString(name); err != nil {
			return n, err
		}
		n += int64(len(name))
	}
	for ti := range m.Trees {
		nodes := m.Trees[ti].Nodes
		if err := put(uint32(len(nodes))); err != nil {
			return n, err
		}
		for _, nd := range nodes {
			if err := put(nd.Feature); err != nil {
				return n, err
			}
			if err := put(nd.Left); err != nil {
				return n, err
			}
			if err := put(nd.Right); err != nil {
				return n, err
			}
			if err := put(nd.Threshold); err != nil {
				return n, err
			}
			if err := put(nd.Value); err != nil {
				return n, err
			}
			if err := put(nd.Gain); err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// LoadModel deserialises a model from an in-memory buffer. It never
// panics, whatever the bytes: every structural invariant Predict relies
// on (non-empty acyclic trees, in-range feature and child indices,
// plausible header counts) is validated here, so arbitrary or corrupted
// input yields an error, not a crash or an infinite loop at inference
// time.
func LoadModel(data []byte) (*Model, error) {
	return Read(bytes.NewReader(data))
}

// Read deserialises a model written by WriteTo.
func Read(r io.Reader) (*Model, error) {
	br := bufio.NewReader(r)
	get := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }
	var mg uint32
	if err := get(&mg); err != nil {
		return nil, fmt.Errorf("gbt: reading magic: %w", err)
	}
	if mg == magicBGT1 {
		return nil, fmt.Errorf("gbt: legacy BGT1 model; re-save it with this version")
	}
	if mg != magicV2 {
		return nil, fmt.Errorf("gbt: bad magic %#x", mg)
	}
	var numTrees, maxDepth, numFeat, treeCount uint32
	for _, p := range []*uint32{&numTrees, &maxDepth, &numFeat, &treeCount} {
		if err := get(p); err != nil {
			return nil, err
		}
	}
	if numFeat > 1<<16 || treeCount > 1<<20 || numTrees > 1<<20 {
		return nil, fmt.Errorf("gbt: implausible header (%d features, %d trees)", numFeat, treeCount)
	}
	if maxDepth > 64 {
		// Depth feeds shift-based cost formulas; a corrupt header must
		// not turn them into garbage.
		return nil, fmt.Errorf("gbt: implausible max depth %d", maxDepth)
	}
	m := &Model{Params: Params{NumTrees: int(numTrees), MaxDepth: int(maxDepth)}}
	for _, f := range []*float64{&m.Params.LearningRate, &m.Params.Gamma, &m.Params.Lambda, &m.Params.MinChildWeight, &m.Base} {
		if err := get(f); err != nil {
			return nil, err
		}
	}
	m.FeatureNames = make([]string, numFeat)
	for i := range m.FeatureNames {
		var l uint16
		if err := get(&l); err != nil {
			return nil, err
		}
		buf := make([]byte, l)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, err
		}
		m.FeatureNames[i] = string(buf)
	}
	m.Trees = make([]Tree, treeCount)
	for ti := range m.Trees {
		var nn uint32
		if err := get(&nn); err != nil {
			return nil, err
		}
		if nn == 0 {
			// An empty tree would make Predict index out of range.
			return nil, fmt.Errorf("gbt: tree %d is empty", ti)
		}
		if nn > 1<<22 {
			return nil, fmt.Errorf("gbt: implausible node count %d", nn)
		}
		nodes := make([]Node, nn)
		for i := range nodes {
			if err := get(&nodes[i].Feature); err != nil {
				return nil, err
			}
			if err := get(&nodes[i].Left); err != nil {
				return nil, err
			}
			if err := get(&nodes[i].Right); err != nil {
				return nil, err
			}
			if err := get(&nodes[i].Threshold); err != nil {
				return nil, err
			}
			if err := get(&nodes[i].Value); err != nil {
				return nil, err
			}
			if err := get(&nodes[i].Gain); err != nil {
				return nil, err
			}
			if nodes[i].Feature >= 0 {
				// Trees are stored breadth-first, so a legitimate child
				// always sits after its parent; requiring strictly
				// increasing child indices also proves the tree acyclic,
				// which is what keeps Predict from looping forever on a
				// corrupted model.
				if nodes[i].Left <= int32(i) || nodes[i].Right <= int32(i) ||
					nodes[i].Left >= int32(nn) || nodes[i].Right >= int32(nn) {
					return nil, fmt.Errorf("gbt: tree %d node %d has bad children", ti, i)
				}
			}
			if nodes[i].Feature >= int32(numFeat) {
				return nil, fmt.Errorf("gbt: tree %d node %d references feature %d of %d",
					ti, i, nodes[i].Feature, numFeat)
			}
		}
		m.Trees[ti].Nodes = nodes
	}
	return m, nil
}

// NumNodes returns the total node count of the ensemble.
func (m *Model) NumNodes() int {
	n := 0
	for i := range m.Trees {
		n += len(m.Trees[i].Nodes)
	}
	return n
}

// WeightBytes returns the paper's hardware-cost model of the ensemble:
// full binary trees of the configured depth with one 32-bit value per
// node (223 trees of depth 3 -> "less than 14 KB").
func (m *Model) WeightBytes() int {
	nodesPerFullTree := 1<<(uint(m.Params.MaxDepth)+1) - 1
	return len(m.Trees) * nodesPerFullTree * 4
}

// PredictionOps returns the serial operation counts of one inference in
// the paper's accounting: one comparison per level per tree plus the adds
// that accumulate the leaf values (223 trees x depth 3 = 669 comparisons
// and 222 adds).
func (m *Model) PredictionOps() (comparisons, adds int) {
	return len(m.Trees) * m.Params.MaxDepth, max(0, len(m.Trees)-1)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// MSEOf is a convenience for computing the MSE of arbitrary predictions.
func MSEOf(pred, y []float64) float64 {
	if len(pred) != len(y) || len(y) == 0 {
		return math.NaN()
	}
	s := 0.0
	for i := range y {
		d := pred[i] - y[i]
		s += d * d
	}
	return s / float64(len(y))
}
