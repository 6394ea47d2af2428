package gbt

import (
	"bytes"
	"context"
	"math"
	"sort"
	"testing"

	"github.com/hotgauge/boreas/internal/rng"
	"github.com/hotgauge/boreas/internal/runner"
)

// mapTrainer is the exact trainer that the dense node table and the
// ranked sorted columns replaced, kept verbatim as the reference for
// TestExactMatchesMapReference, TestExactScanMatchesMapReference and
// FuzzExactMatchesMapReference: the live nodes of a level sit in a
// map[int32]int, and every scan looks that map up and gathers x[i][f] for
// each instance of each feature.
type mapTrainer struct {
	p        Params
	x        [][]float64
	grad     []float64 // residual gradients (pred - y), loss-weighted
	hess     []float64 // per-instance hessians, loss-weighted
	sorted   [][]int32 // per feature: instance indices sorted by value
	nodeOf   []int32   // current tree-node id of each instance (-1: settled in a leaf)
	nFeature int
}

func newMapTrainer(ctx context.Context, x [][]float64, grad, hess []float64, p Params) *mapTrainer {
	n, d := len(x), len(x[0])
	tr := &mapTrainer{p: p, x: x, grad: grad, hess: hess, nFeature: d}
	tr.nodeOf = make([]int32, n)
	tr.sorted = make([][]int32, d)
	_ = runner.ForEach(ctx, p.Workers, d, func(_ context.Context, f int) error {
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(i)
		}
		sort.Slice(idx, func(a, b int) bool { return x[idx[a]][f] < x[idx[b]][f] })
		tr.sorted[f] = idx
		return nil
	})
	return tr
}

func (tr *mapTrainer) buildTree(ctx context.Context) Tree {
	p := tr.p
	n := len(tr.x)

	// All instances start at the root (node 0).
	for i := range tr.nodeOf {
		tr.nodeOf[i] = 0
	}
	tree := Tree{Nodes: []Node{{Feature: -1}}}

	// active maps node id -> position in the per-level arrays.
	active := []int32{0}

	for depth := 0; depth < p.MaxDepth && len(active) > 0; depth++ {
		pos := make(map[int32]int, len(active))
		for i, id := range active {
			pos[id] = i
		}
		k := len(active)

		// Node aggregates.
		gTot := make([]float64, k)
		hTot := make([]float64, k)
		for i := 0; i < n; i++ {
			if j, ok := pos[tr.nodeOf[i]]; ok {
				gTot[j] += tr.grad[i]
				hTot[j] += tr.hess[i]
			}
		}

		// Exact greedy split search, fanned across features: each feature
		// scan is independent (private accumulators over the shared
		// read-only sort order and gradients). Candidates merge in feature
		// order with a strict greater-than, so ties resolve to the lowest
		// feature index exactly as the sequential scan did, and the chosen
		// splits are bit-identical at any worker count.
		featBest := make([][]splitChoice, tr.nFeature)
		_ = runner.ForEach(ctx, p.Workers, tr.nFeature, func(_ context.Context, f int) error {
			featBest[f] = tr.scanFeature(f, pos, gTot, hTot)
			return nil
		})

		best := make([]splitChoice, k)
		for i := range best {
			best[i].gain = math.Inf(-1)
			best[i].feature = -1
		}
		for f := 0; f < tr.nFeature; f++ {
			for j, c := range featBest[f] {
				if c.feature >= 0 && c.gain > best[j].gain {
					best[j] = c
				}
			}
		}

		// Materialise the chosen splits. All writes go through the slice
		// index: appending children may reallocate the backing array, so a
		// node pointer taken before the append would go stale.
		var nextActive []int32
		for i, id := range active {
			if best[i].feature < 0 || best[i].gain <= 0 {
				// Leaf: newton step scaled by the learning rate.
				tree.Nodes[id].Feature = -1
				tree.Nodes[id].Value = -tr.grad2leaf(gTot[i], hTot[i])
				continue
			}
			left := int32(len(tree.Nodes))
			tree.Nodes = append(tree.Nodes, Node{Feature: -1}, Node{Feature: -1})
			tree.Nodes[id].Feature = best[i].feature
			tree.Nodes[id].Threshold = best[i].thresh
			tree.Nodes[id].Gain = best[i].gain
			tree.Nodes[id].Left, tree.Nodes[id].Right = left, left+1
			nextActive = append(nextActive, left, left+1)
		}

		// Reassign instances of split nodes to their children; settle the
		// rest as leaves.
		for i := 0; i < n; i++ {
			id := tr.nodeOf[i]
			j, ok := pos[id]
			if !ok {
				continue
			}
			node := &tree.Nodes[id]
			if node.Feature < 0 {
				tr.nodeOf[i] = -1
				continue
			}
			if tr.x[i][node.Feature] < node.Threshold {
				tr.nodeOf[i] = node.Left
			} else {
				tr.nodeOf[i] = node.Right
			}
			_ = j
		}
		active = nextActive
	}

	// Any still-active nodes at max depth become leaves.
	if len(active) > 0 {
		g := make(map[int32]float64, len(active))
		h := make(map[int32]float64, len(active))
		for i := 0; i < n; i++ {
			if id := tr.nodeOf[i]; id >= 0 {
				g[id] += tr.grad[i]
				h[id] += tr.hess[i]
			}
		}
		for _, id := range active {
			node := &tree.Nodes[id]
			node.Feature = -1
			node.Value = -tr.grad2leaf(g[id], h[id])
		}
	}
	return tree
}

func (tr *mapTrainer) scanFeature(f int, pos map[int32]int, gTot, hTot []float64) []splitChoice {
	p := tr.p
	k := len(gTot)
	best := make([]splitChoice, k)
	for i := range best {
		best[i].gain = math.Inf(-1)
		best[i].feature = -1
	}
	gl := make([]float64, k)
	hl := make([]float64, k)
	lastVal := make([]float64, k)
	started := make([]bool, k)
	score := func(g, h float64) float64 {
		return g * g / (h + p.Lambda)
	}
	for _, ii := range tr.sorted[f] {
		j, ok := pos[tr.nodeOf[ii]]
		if !ok {
			continue
		}
		v := tr.x[ii][f]
		if started[j] && v > lastVal[j] && hl[j] >= p.MinChildWeight && hTot[j]-hl[j] >= p.MinChildWeight {
			gain := 0.5*(score(gl[j], hl[j])+score(gTot[j]-gl[j], hTot[j]-hl[j])-score(gTot[j], hTot[j])) - p.Gamma
			if gain > best[j].gain {
				best[j] = splitChoice{gain: gain, feature: int32(f), thresh: (lastVal[j] + v) / 2}
			}
		}
		gl[j] += tr.grad[ii]
		hl[j] += tr.hess[ii]
		lastVal[j] = v
		started[j] = true
	}
	return best
}

func (tr *mapTrainer) grad2leaf(g, h float64) float64 {
	return tr.p.leafValue(g, h)
}

// trainMapReference runs TrainContextHooks's boosting loop (no hooks, no
// cancellation) over the map-based reference trainer.
func trainMapReference(x [][]float64, y []float64, featureNames []string, p Params) *Model {
	n := len(x)
	base := 0.0
	for _, v := range y {
		base += v
	}
	base /= float64(n)
	grad := make([]float64, n)
	hess := make([]float64, n)
	builder := newMapTrainer(context.Background(), x, grad, hess, p)
	pred := make([]float64, n)
	for i := range pred {
		pred[i] = base
	}
	m := &Model{Params: p, FeatureNames: append([]string(nil), featureNames...), Base: base}
	safety := p.SafetyWeight
	if safety <= 0 {
		safety = 1
	}
	for t := 0; t < p.NumTrees; t++ {
		for i := range grad {
			g := pred[i] - y[i]
			h := 1.0
			if g < 0 {
				g *= safety
				h = safety
			}
			grad[i] = g
			hess[i] = h
		}
		tree := builder.buildTree(context.Background())
		m.Trees = append(m.Trees, tree)
		for i := range pred {
			pred[i] += tree.Predict(x[i])
		}
	}
	return m
}

// refDataset builds one of the differential test's datasets: n rows of
// four features chosen to stress the value ranks' tie handling.
//
//   - "ties": every feature takes one of three integer values;
//   - "constant": feature 1 is constant, feature 3 nearly so;
//   - "signed-zero": features mix -0 and +0 with a few ±1s, so equal
//     values with different bits share a rank.
func refDataset(kind string, seed uint64, n int) (x [][]float64, y []float64) {
	r := rng.New(seed)
	negZero := math.Copysign(0, -1)
	for i := 0; i < n; i++ {
		row := make([]float64, 4)
		switch kind {
		case "ties":
			for f := range row {
				row[f] = float64(r.Intn(3))
			}
		case "constant":
			row[0] = r.Float64()
			row[1] = 7
			row[2] = float64(r.Intn(5))
			if r.Intn(50) == 0 {
				row[3] = 1
			}
		case "signed-zero":
			for f := range row {
				switch r.Intn(5) {
				case 0:
					row[f] = negZero
				case 1, 2:
					row[f] = 0
				case 3:
					row[f] = 1
				default:
					row[f] = -1
				}
			}
		}
		x = append(x, row)
		y = append(y, row[0]+0.5*row[2]*row[3]+r.Norm(0, 0.3))
	}
	return x, y
}

var names4 = []string{"f0", "f1", "f2", "f3"}

// modelBytes serialises m or fails the test.
func modelBytes(t testing.TB, m *Model) []byte {
	t.Helper()
	b, err := m.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestExactMatchesMapReference pins the exact trainer to the map-based
// trainer it replaced: the same model bytes over tie-heavy, constant and
// signed-zero datasets, every depth 1-8, both gamma settings, three
// minimum child weights (0 admits a boundary with an empty left side), the
// plain and the safety-weighted loss, and three worker counts.
func TestExactMatchesMapReference(t *testing.T) {
	for _, kind := range []string{"ties", "constant", "signed-zero"} {
		for _, n := range []int{1, 2, 3, 500} {
			x, y := refDataset(kind, uint64(n), n)
			for depth := 1; depth <= 8; depth++ {
				for _, gamma := range []float64{0, 0.1} {
					for _, mcw := range []float64{0, 1, 5} {
						for _, safety := range []float64{0, 2} {
							p := Params{NumTrees: 4, MaxDepth: depth, LearningRate: 0.3, Lambda: 1,
								Gamma: gamma, MinChildWeight: mcw, SafetyWeight: safety, Workers: 1}
							want := modelBytes(t, trainMapReference(x, y, names4, p))
							for _, workers := range []int{1, 2, 8} {
								p.Workers = workers
								m, err := Train(x, y, names4, p)
								if err != nil {
									t.Fatal(err)
								}
								if !bytes.Equal(modelBytes(t, m), want) {
									t.Fatalf("%s n=%d depth=%d gamma=%v mcw=%v safety=%v workers=%d: model bytes differ from the map reference",
										kind, n, depth, gamma, mcw, safety, workers)
								}
							}
						}
					}
				}
			}
		}
	}
}

// checkScans compares the exact trainer's per-feature split candidates
// with the map reference's, bit for bit, with the instances placed in the
// nodes nodeOf names. Node ids outside active stand for settled leaves.
// Model bytes cannot see a candidate that never wins (the gain <= 0 leaf
// rule discards it); the candidates themselves can.
func checkScans(t testing.TB, x [][]float64, grad, hess []float64, p Params, nodeOf, active []int32) {
	t.Helper()
	ctx := context.Background()
	tr := newExactTrainer(ctx, x, grad, hess, p)
	ref := newMapTrainer(ctx, x, grad, hess, p)
	copy(tr.nodeOf, nodeOf)
	copy(ref.nodeOf, nodeOf)
	tr.setSlots(active)
	pos := make(map[int32]int, len(active))
	for i, id := range active {
		pos[id] = i
	}
	gTot, hTot := tr.nodeSums(len(active))
	for f := range x[0] {
		got, want := tr.scanFeature(f, gTot, hTot), ref.scanFeature(f, pos, gTot, hTot)
		for j := range want {
			g, w := got[j], want[j]
			if g.feature != w.feature || math.Float64bits(g.gain) != math.Float64bits(w.gain) ||
				math.Float64bits(g.thresh) != math.Float64bits(w.thresh) {
				t.Fatalf("params %+v, feature %d, node %d: candidate %+v, map reference %+v", p, f, active[j], g, w)
			}
		}
	}
}

// TestExactScanMatchesMapReference compares the split candidates of every
// feature over the datasets of TestExactMatchesMapReference, with the
// instances spread over four live nodes and one settled leaf of a
// depth-3 tree, for both signs of the gradient and lambda 0 and 1.
func TestExactScanMatchesMapReference(t *testing.T) {
	active := []int32{3, 4, 5, 6}
	for _, kind := range []string{"ties", "constant", "signed-zero"} {
		for _, n := range []int{1, 2, 3, 500} {
			x, y := refDataset(kind, uint64(n)+100, n)
			r := rng.New(uint64(n))
			nodeOf := make([]int32, n)
			grad := make([]float64, n)
			hess := make([]float64, n)
			for i := range nodeOf {
				nodeOf[i] = int32(2 + r.Intn(5)) // 2 is a settled leaf
				grad[i], hess[i] = -y[i], 1
				if grad[i] < 0 {
					grad[i], hess[i] = 2*grad[i], 2
				}
			}
			for _, lambda := range []float64{0, 1} {
				for _, gamma := range []float64{0, 0.1} {
					for _, mcw := range []float64{0, 1, 5} {
						p := Params{NumTrees: 1, MaxDepth: 3, LearningRate: 0.3, Lambda: lambda,
							Gamma: gamma, MinChildWeight: mcw, Workers: 1}
						checkScans(t, x, grad, hess, p, make([]int32, n), []int32{0})
						checkScans(t, x, grad, hess, p, nodeOf, active)
					}
				}
			}
		}
	}
}

// FuzzExactMatchesMapReference decodes a small dataset and parameters
// from the fuzzer's bytes and asks for the map reference's root-level
// split candidates and model bytes. Feature values come from a
// five-value alphabet with both signed zeros, so ties dominate. The seed
// corpus runs in every go test.
func FuzzExactMatchesMapReference(f *testing.F) {
	f.Add(uint8(3), uint8(0), uint8(0), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add(uint8(1), uint8(0), uint8(1), []byte{4, 4, 4, 4, 4, 4, 4, 4})
	f.Add(uint8(2), uint8(2), uint8(1), []byte{4, 4, 4, 1, 4, 2, 4, 3})
	f.Add(uint8(8), uint8(5), uint8(3), []byte{1, 0, 1, 0, 3, 2, 9, 1, 4, 0, 0, 2, 1, 7, 3, 3, 2, 8})
	r := rng.New(5)
	for i := 0; i < 6; i++ {
		data := make([]byte, 20+r.Intn(200))
		for k := range data {
			data[k] = byte(r.Intn(256))
		}
		f.Add(uint8(1+r.Intn(8)), uint8(r.Intn(6)), uint8(r.Intn(4)), data)
	}
	alphabet := []float64{math.Copysign(0, -1), 0, 1, -1, 2.5}
	f.Fuzz(func(t *testing.T, depth, mcw, shape uint8, data []byte) {
		d := 1 + int(shape%3)
		n := len(data) / (d + 1)
		if n == 0 || n > 400 {
			return
		}
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			rec := data[i*(d+1) : (i+1)*(d+1)]
			x[i] = make([]float64, d)
			for j := range x[i] {
				x[i][j] = alphabet[int(rec[j])%len(alphabet)]
			}
			y[i] = float64(rec[d]) / 16
		}
		p := Params{NumTrees: 3, MaxDepth: 1 + int(depth%8), LearningRate: 0.3, Lambda: 1,
			MinChildWeight: float64(mcw % 6), SafetyWeight: float64(shape/3%2) * 2, Workers: 1}
		if shape&8 != 0 {
			p.Gamma = 0.1
		}
		grad := make([]float64, n)
		hess := make([]float64, n)
		for i := range grad {
			grad[i], hess[i] = -y[i], 1
		}
		checkScans(t, x, grad, hess, p, make([]int32, n), []int32{0})
		want := modelBytes(t, trainMapReference(x, y, names4[:d], p))
		for _, workers := range []int{1, 3} {
			p.Workers = workers
			m, err := Train(x, y, names4[:d], p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(modelBytes(t, m), want) {
				t.Fatalf("params %+v, %d rows: model bytes differ from the map reference", p, n)
			}
		}
	})
}
