// Package gbt implements gradient-boosted regression trees in the style
// of XGBoost: squared-error objective, exact greedy split finding with
// second-order (gain) scoring, L2 leaf regularisation, gamma
// minimum-split-loss pruning and a shrinkage learning rate. It is the
// model family Boreas trains to predict future Hotspot-Severity, with the
// paper's hyper-parameter vocabulary (alpha, gamma, max_depth,
// n_estimators) and gain-based feature importance for the Table IV
// feature-selection study.
package gbt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/hotgauge/boreas/internal/runner"
)

// Params are the training hyper-parameters (Table II vocabulary).
type Params struct {
	// NumTrees is n_estimators.
	NumTrees int
	// MaxDepth is the maximum tree depth (root = depth 0 edges).
	MaxDepth int
	// LearningRate is alpha, the shrinkage applied to each tree's
	// contribution.
	LearningRate float64
	// Gamma is the minimum loss reduction required to make a split.
	Gamma float64
	// Lambda is the L2 regularisation on leaf weights.
	Lambda float64
	// MinChildWeight is the minimum hessian sum (= instance count for
	// squared loss) allowed in a child.
	MinChildWeight float64
	// SafetyWeight asymmetrises the squared loss: residuals where the
	// model *under*-predicts are weighted by this factor, biasing the
	// fit toward an upper quantile of the target. For a hotspot-severity
	// predictor this is the right shape of conservatism - the cost of
	// underprediction is silicon damage, the cost of overprediction is a
	// slightly lower frequency. 0 or 1 means the plain symmetric loss.
	SafetyWeight float64
	// Workers bounds the parallelism of the per-node split search, which
	// scans each feature independently. 0 or negative means one worker
	// per CPU. The trained model is bit-identical at any worker count:
	// per-feature scans are independent and their candidates merge in
	// feature order. Workers is a run-time knob, not a model property,
	// and is not serialised.
	Workers int
}

// DefaultParams returns the paper's chosen configuration (Table II):
// alpha = 0.3, gamma = 0, max_depth = 3, n_estimators = 223.
func DefaultParams() Params {
	return Params{
		NumTrees:       223,
		MaxDepth:       3,
		LearningRate:   0.3,
		Gamma:          0,
		Lambda:         1,
		MinChildWeight: 1,
	}
}

// Validate reports hyper-parameter errors.
func (p Params) Validate() error {
	if p.NumTrees <= 0 {
		return fmt.Errorf("gbt: NumTrees %d must be positive", p.NumTrees)
	}
	if p.MaxDepth <= 0 || p.MaxDepth > 16 {
		return fmt.Errorf("gbt: MaxDepth %d outside [1,16]", p.MaxDepth)
	}
	if p.LearningRate <= 0 || p.LearningRate > 1 {
		return fmt.Errorf("gbt: LearningRate %g outside (0,1]", p.LearningRate)
	}
	if p.Gamma < 0 || p.Lambda < 0 || p.MinChildWeight < 0 {
		return fmt.Errorf("gbt: negative regularisation parameter")
	}
	if p.SafetyWeight < 0 {
		return fmt.Errorf("gbt: negative safety weight")
	}
	return nil
}

// leafValue converts node gradient/hessian aggregates into the (shrunk)
// newton-step leaf weight.
func (p Params) leafValue(g, h float64) float64 {
	return p.LearningRate * g / (h + p.Lambda)
}

// Node is one tree node. Leaves have Feature == -1 and carry Value;
// internal nodes route x[Feature] < Threshold to Left, else Right.
type Node struct {
	Feature   int32
	Threshold float64
	Left      int32
	Right     int32
	Value     float64
	Gain      float64
}

// Tree is one regression tree, nodes in breadth-first order (root = 0).
type Tree struct {
	Nodes []Node
}

// Predict routes one row to a leaf and returns its (already shrunk) value.
//
// Non-finite inputs are pinned, not rejected: a comparison with a NaN
// operand is false, so a NaN feature always routes to the Right child;
// +Inf routes Right and -Inf routes Left of any finite threshold. This
// keeps the hot inference loop branch-free. Callers that must not
// silently evaluate garbage telemetry use Model.PredictChecked, which
// screens the row first.
func (t *Tree) Predict(x []float64) float64 {
	i := int32(0)
	for {
		n := &t.Nodes[i]
		if n.Feature < 0 {
			return n.Value
		}
		if x[n.Feature] < n.Threshold {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// Depth returns the maximum root-to-leaf edge count.
func (t *Tree) Depth() int {
	var walk func(i int32) int
	walk = func(i int32) int {
		n := &t.Nodes[i]
		if n.Feature < 0 {
			return 0
		}
		l, r := walk(n.Left), walk(n.Right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	if len(t.Nodes) == 0 {
		return 0
	}
	return walk(0)
}

// Model is a trained boosted ensemble.
type Model struct {
	Params       Params
	FeatureNames []string
	// Base is the initial prediction (training-set mean).
	Base  float64
	Trees []Tree
}

// Predict evaluates the ensemble on one row.
func (m *Model) Predict(x []float64) float64 {
	s := m.Base
	for i := range m.Trees {
		s += m.Trees[i].Predict(x)
	}
	return s
}

// ErrNonFinite is wrapped by PredictChecked when a feature value is NaN
// or ±Inf, and by Train and its variants when a training feature or label
// is. Detect it with errors.Is.
var ErrNonFinite = errors.New("gbt: non-finite feature value")

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// PredictChecked is Predict with input screening: it rejects rows of the
// wrong width and rows containing NaN or ±Inf instead of silently
// routing them through the pinned comparison semantics documented on
// Tree.Predict. Controllers use it as the fail-safe entry point when the
// telemetry source may be faulty.
func (m *Model) PredictChecked(x []float64) (float64, error) {
	if len(x) != len(m.FeatureNames) {
		return 0, fmt.Errorf("gbt: row has %d features, model wants %d", len(x), len(m.FeatureNames))
	}
	for i, v := range x {
		if !finite(v) {
			return 0, fmt.Errorf("%w: feature %d (%s) = %v", ErrNonFinite, i, m.FeatureNames[i], v)
		}
	}
	return m.Predict(x), nil
}

// MSE returns the mean squared error on a dataset. It runs on the
// compiled representation (bit-identical to the pointer walk, several
// times faster); a model whose trees cannot compile, only possible for a
// malformed hand-built ensemble, falls back to the pointer walk.
func (m *Model) MSE(x [][]float64, y []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	predict := m.Predict
	if c, err := m.Compile(); err == nil {
		predict = c.Predict
	}
	s := 0.0
	for i, row := range x {
		d := predict(row) - y[i]
		s += d * d
	}
	return s / float64(len(x))
}

// trainer holds the level-wise exact-greedy split machinery. Each
// feature column is sorted once, in the column-block layout of XGBoost
// (Chen & Guestrin, KDD 2016), and carries its dense value ranks, so a
// scan streams one int32 array and compares ranks instead of gathering x
// rows. The live nodes of a level are found through slot, a dense table
// indexed by node id. Per instance and feature the layout costs 4 bytes;
// per-level scratch scales with the active nodes and features, never
// with the instance count.
type trainer struct {
	p    Params
	x    [][]float64
	grad []float64 // residual gradients (pred - y), loss-weighted
	hess []float64 // per-instance hessians, loss-weighted
	// sorted[f] lists the instance indices in order of feature f's value.
	// An entry whose value is greater than the previous entry's has its
	// sign bit set (a rise), so the dense rank of an entry's value, with
	// equal values (±0 included) sharing a rank, is the number of rises
	// up to it. The rank column thus costs one bit per entry.
	sorted [][]int32
	// nodeOf is the current tree-node id of each instance. An instance
	// that settles in a leaf keeps the leaf's id, whose slot stays -1.
	nodeOf []int32
	// slot[id] is node id's position in the current level's active list,
	// or -1 when the node is not being split at this level. Sized for a
	// complete tree of depth MaxDepth.
	slot     []int32
	nFeature int
}

// rise marks a sorted entry whose value is greater than its predecessor's.
const rise = math.MinInt32

// newExactTrainer presorts every feature column, marks its rises and
// returns the exact greedy split searcher. The per-feature presort is
// independent per feature; it fans across the pool. Each slot is written
// only by its own task, so the result is identical at any worker count.
// A cancelled context leaves some columns unsorted; the boosting loop
// re-checks the context before the trainer is ever used.
func newExactTrainer(ctx context.Context, x [][]float64, grad, hess []float64, p Params) *trainer {
	n, d := len(x), len(x[0])
	tr := &trainer{p: p, x: x, grad: grad, hess: hess, nFeature: d}
	tr.nodeOf = make([]int32, n)
	tr.slot = make([]int32, 1<<(p.MaxDepth+1))
	for i := range tr.slot {
		tr.slot[i] = -1
	}
	tr.sorted = make([][]int32, d)
	_ = runner.ForEach(ctx, p.Workers, d, func(_ context.Context, f int) error {
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(i)
		}
		sort.Slice(idx, func(a, b int) bool { return x[idx[a]][f] < x[idx[b]][f] })
		// Back to front, so the predecessor is still unmarked.
		for k := n - 1; k > 0; k-- {
			if x[idx[k]][f] > x[idx[k-1]][f] {
				idx[k] |= rise
			}
		}
		tr.sorted[f] = idx
		return nil
	})
	return tr
}

// TrainHooks let a caller make a long training run resumable. They are
// optional; the zero value trains from scratch with no snapshots.
type TrainHooks struct {
	// Resume, when non-nil, is a partial model from an interrupted run of
	// the SAME data and hyper-parameters. Boosting restarts at round
	// len(Resume.Trees); the resumed run's final model is bit-identical
	// to an uninterrupted one, because predictions are replayed by the
	// same per-tree additions in the same order.
	Resume *Model
	// Snapshot, when non-nil, receives a self-contained copy of the
	// partial model every SnapshotEvery completed rounds. Returning an
	// error aborts training (it usually means the checkpoint store is
	// unwritable). Snapshots only ever contain fully-built trees: a round
	// cut short by cancellation is discarded before the hook can fire.
	Snapshot func(m *Model) error
	// SnapshotEvery is the snapshot cadence in boosting rounds; <= 0
	// means every 32 rounds.
	SnapshotEvery int
}

// defaultSnapshotEvery balances resume granularity against checkpoint
// write amplification for typical n_estimators (~223, Table II).
const defaultSnapshotEvery = 32

// Train fits a boosted ensemble to x (n rows, d features) and y.
// featureNames must have d entries and are retained for importance
// reporting and serialisation. Every feature value and label must be
// finite: a NaN or ±Inf is rejected with an error wrapping ErrNonFinite
// that names its row (and feature), since one NaN label would make every
// leaf NaN and a NaN feature has no place in a sorted column.
func Train(x [][]float64, y []float64, featureNames []string, p Params) (*Model, error) {
	return TrainContext(context.Background(), x, y, featureNames, p)
}

// TrainContext is Train with cancellation: the context is checked every
// boosting round, so a SIGINT or deadline stops a long train within one
// round instead of running to completion.
// The returned error wraps the context's cancellation cause.
func TrainContext(ctx context.Context, x [][]float64, y []float64, featureNames []string, p Params) (*Model, error) {
	return TrainContextHooks(ctx, x, y, featureNames, p, TrainHooks{})
}

// TrainContextHooks is TrainContext plus resume/snapshot hooks.
func TrainContextHooks(ctx context.Context, x [][]float64, y []float64, featureNames []string, p Params, hooks TrainHooks) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := len(x)
	if n == 0 {
		return nil, fmt.Errorf("gbt: empty training set")
	}
	if len(y) != n {
		return nil, fmt.Errorf("gbt: %d rows but %d labels", n, len(y))
	}
	d := len(x[0])
	if d == 0 {
		return nil, fmt.Errorf("gbt: zero-dimensional rows")
	}
	if len(featureNames) != d {
		return nil, fmt.Errorf("gbt: %d feature names for %d features", len(featureNames), d)
	}
	for i, row := range x {
		if len(row) != d {
			return nil, fmt.Errorf("gbt: row %d has %d features, want %d", i, len(row), d)
		}
		for f, v := range row {
			if !finite(v) {
				return nil, fmt.Errorf("%w: row %d feature %d (%s) = %v", ErrNonFinite, i, f, featureNames[f], v)
			}
		}
	}
	for i, v := range y {
		if !finite(v) {
			return nil, fmt.Errorf("%w: row %d label = %v", ErrNonFinite, i, v)
		}
	}

	base := 0.0
	for _, v := range y {
		base += v
	}
	base /= float64(n)

	grad := make([]float64, n)
	hess := make([]float64, n)
	tr := newExactTrainer(ctx, x, grad, hess, p)

	pred := make([]float64, n)
	for i := range pred {
		pred[i] = base
	}

	m := &Model{Params: p, FeatureNames: append([]string(nil), featureNames...), Base: base}
	start := 0
	if r := hooks.Resume; r != nil {
		if err := resumeCompatible(r, featureNames, base, p); err != nil {
			return nil, err
		}
		m.Trees = append(m.Trees, r.Trees...)
		start = len(r.Trees)
		// Replay the resumed trees' predictions with the same per-tree
		// additions an uninterrupted run would have made, in the same
		// order — float addition is order-sensitive, and bit-identical
		// resume depends on repeating it exactly.
		for _, tree := range m.Trees {
			for i := range pred {
				pred[i] += tree.Predict(x[i])
			}
		}
	}
	snapshotEvery := hooks.SnapshotEvery
	if snapshotEvery <= 0 {
		snapshotEvery = defaultSnapshotEvery
	}

	safety := p.SafetyWeight
	if safety <= 0 {
		safety = 1
	}
	for t := start; t < p.NumTrees; t++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("gbt: training cancelled at round %d/%d: %w", t, p.NumTrees, context.Cause(ctx))
		}
		for i := range grad {
			g := pred[i] - y[i]
			h := 1.0
			if g < 0 {
				// Underprediction: weight the loss up.
				g *= safety
				h = safety
			}
			grad[i] = g
			hess[i] = h
		}
		tree := tr.buildTree(ctx)
		// A cancellation that lands mid-build yields a degenerate tree
		// (feature scans cut short). Discard it rather than appending or
		// snapshotting it: resumed models must only ever contain trees
		// built to completion.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("gbt: training cancelled during round %d/%d: %w", t, p.NumTrees, context.Cause(ctx))
		}
		m.Trees = append(m.Trees, tree)
		for i := range pred {
			pred[i] += tree.Predict(x[i])
		}
		if hooks.Snapshot != nil && (t+1)%snapshotEvery == 0 && t+1 < p.NumTrees {
			if err := hooks.Snapshot(m.snapshot()); err != nil {
				return nil, fmt.Errorf("gbt: snapshot after round %d/%d: %w", t+1, p.NumTrees, err)
			}
		}
	}
	return m, nil
}

// snapshot returns a copy of the model safe to retain and serialise
// while training keeps appending trees to the original.
func (m *Model) snapshot() *Model {
	snap := *m
	snap.Trees = append([]Tree(nil), m.Trees...)
	return &snap
}

// resumeCompatible rejects a resume model that was not trained on the
// same problem: silently mixing models is exactly the corruption a
// checkpointed run must rule out.
func resumeCompatible(r *Model, featureNames []string, base float64, p Params) error {
	if len(r.FeatureNames) != len(featureNames) {
		return fmt.Errorf("gbt: resume model has %d features, training data has %d", len(r.FeatureNames), len(featureNames))
	}
	for i, name := range r.FeatureNames {
		if name != featureNames[i] {
			return fmt.Errorf("gbt: resume model feature %d is %q, training data has %q", i, name, featureNames[i])
		}
	}
	if r.Base != base {
		return fmt.Errorf("gbt: resume model base %v does not match training-set mean %v (different data?)", r.Base, base)
	}
	if len(r.Trees) > p.NumTrees {
		return fmt.Errorf("gbt: resume model already has %d trees, target is %d", len(r.Trees), p.NumTrees)
	}
	return nil
}

// split candidate chosen for a node during a level scan.
type splitChoice struct {
	gain    float64
	feature int32
	thresh  float64
}

// buildTree grows one tree level-wise with exact greedy splits.
func (tr *trainer) buildTree(ctx context.Context) Tree {
	p := tr.p

	// All instances start at the root (node 0).
	for i := range tr.nodeOf {
		tr.nodeOf[i] = 0
	}
	tree := Tree{Nodes: []Node{{Feature: -1}}}

	// active lists the node ids being split at this level; slot maps
	// each back to its position in the per-level arrays.
	active := []int32{0}

	for depth := 0; depth < p.MaxDepth && len(active) > 0; depth++ {
		tr.setSlots(active)
		gTot, hTot := tr.nodeSums(len(active))

		// Exact greedy split search, fanned across features: each feature
		// scan is independent (private accumulators over the shared
		// read-only sort order and gradients). Candidates merge in feature
		// order with a strict greater-than, so ties resolve to the lowest
		// feature index exactly as the sequential scan did, and the chosen
		// splits are bit-identical at any worker count.
		featBest := make([][]splitChoice, tr.nFeature)
		_ = runner.ForEach(ctx, p.Workers, tr.nFeature, func(_ context.Context, f int) error {
			featBest[f] = tr.scanFeature(f, gTot, hTot)
			return nil
		})

		best := make([]splitChoice, len(active))
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
				tree.Nodes[id].Value = -p.leafValue(gTot[i], hTot[i])
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

		// Reassign instances of split nodes to their children. Instances
		// of new leaves keep the leaf's id and so drop out of every later
		// pass once its slot is cleared.
		for i, id := range tr.nodeOf {
			if tr.slot[id] < 0 {
				continue
			}
			node := &tree.Nodes[id]
			if node.Feature < 0 {
				continue
			}
			if tr.x[i][node.Feature] < node.Threshold {
				tr.nodeOf[i] = node.Left
			} else {
				tr.nodeOf[i] = node.Right
			}
		}
		tr.clearSlots(active)
		active = nextActive
	}

	// Any still-active nodes at max depth become leaves.
	if len(active) > 0 {
		tr.setSlots(active)
		g, h := tr.nodeSums(len(active))
		for i, id := range active {
			node := &tree.Nodes[id]
			node.Feature = -1
			node.Value = -p.leafValue(g[i], h[i])
		}
		tr.clearSlots(active)
	}
	return tree
}

// setSlots points the slot of each active node at its list position.
func (tr *trainer) setSlots(active []int32) {
	for i, id := range active {
		tr.slot[id] = int32(i)
	}
}

// clearSlots marks the given nodes inactive again.
func (tr *trainer) clearSlots(active []int32) {
	for _, id := range active {
		tr.slot[id] = -1
	}
}

// nodeSums returns the gradient and hessian sums of the k active nodes,
// each accumulated in instance order.
func (tr *trainer) nodeSums(k int) (g, h []float64) {
	g = make([]float64, k)
	h = make([]float64, k)
	for i, id := range tr.nodeOf {
		if j := tr.slot[id]; j >= 0 {
			g[j] += tr.grad[i]
			h[j] += tr.hess[i]
		}
	}
	return g, h
}

// scanFeature runs the exact greedy split scan of one feature over the
// active nodes of the current level and returns the best candidate per
// node position (feature == -1 where the feature offers no valid split).
// It walks the feature's sorted entries, counting rises into the current
// value's dense rank; a boundary between two instances of a node is a
// candidate when the later one's rank is greater, i.e. its value is.
// lastRank starts at MaxInt32, so a node's first instance is never a
// candidate, even when MinChildWeight 0 would admit an empty left child.
// Only an improving candidate reads x, for its threshold. The scan reads
// only shared immutable state plus its own scratch, so scans of
// different features can run concurrently.
func (tr *trainer) scanFeature(f int, gTot, hTot []float64) []splitChoice {
	p := tr.p
	k := len(gTot)
	best := make([]splitChoice, k)
	for i := range best {
		best[i].gain = math.Inf(-1)
		best[i].feature = -1
	}
	score := func(g, h float64) float64 {
		return g * g / (h + p.Lambda)
	}
	acc := make([]scanAcc, k)
	for j := range acc {
		acc[j] = scanAcc{gTot: gTot[j], hTot: hTot[j], parent: score(gTot[j], hTot[j]), lastRank: math.MaxInt32}
	}
	rank := int32(0)
	for _, ii := range tr.sorted[f] {
		if ii&rise != 0 {
			rank++
			ii &^= rise
		}
		j := tr.slot[tr.nodeOf[ii]]
		if j < 0 {
			continue
		}
		a := &acc[j]
		if rank > a.lastRank && a.hl >= p.MinChildWeight && a.hTot-a.hl >= p.MinChildWeight {
			gain := 0.5*(score(a.gl, a.hl)+score(a.gTot-a.gl, a.hTot-a.hl)-a.parent) - p.Gamma
			if gain > best[j].gain {
				best[j] = splitChoice{gain: gain, feature: int32(f), thresh: (tr.x[a.lastIdx][f] + tr.x[ii][f]) / 2}
			}
		}
		a.gl += tr.grad[ii]
		a.hl += tr.hess[ii]
		a.lastRank = rank
		a.lastIdx = ii
	}
	return best
}

// scanAcc is one active node's running state in a feature scan.
type scanAcc struct {
	gTot, hTot, parent float64 // node totals and their score
	gl, hl             float64 // sums over the node's instances scanned so far
	lastRank, lastIdx  int32   // rank and index of the last of them
}
