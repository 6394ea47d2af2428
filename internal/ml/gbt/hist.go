package gbt

import (
	"context"
	"math"
	"sort"

	"github.com/hotgauge/boreas/internal/runner"
)

// This file implements MethodHist, the histogram-binned split search.
//
// The exact scanner walks every instance of every feature in sorted order
// at every tree level. The binned trainer instead quantises each feature
// ONCE at Train start into at most MaxBins quantile bins (a compact
// uint8 matrix, one byte per instance per feature), then at each level
// accumulates per-node gradient/hessian histograms over those bins and
// scans only bin boundaries as split candidates. Costs per level drop
// from O(n·d) sorted-order walks, each step a scattered read of the
// instance's node and gradient plus a gain evaluation at every rank
// change, to a cache-friendly O(n·d) array accumulation plus an
// O(bins·d) scan, and
// the sibling-subtraction trick halves the accumulation again: of each
// sibling pair only the child with fewer instances is accumulated
// directly, the other's histogram is the parent's minus its sibling's.
//
// Determinism. The trained model is bit-identical at any worker count:
//
//   - Binning is a pure function of the feature column, fanned across
//     workers with one task per feature; each task writes only its own
//     slot (the index-ordered discipline of internal/runner).
//   - Histogram accumulation for a feature happens inside that feature's
//     task, walking instances in global index order on one goroutine.
//   - The subtracted sibling histogram is a bin-by-bin float subtraction
//     of two deterministically built histograms, and the direct/derived
//     choice depends only on deterministic instance counts (ties go to
//     the left child).
//   - Split candidates merge across features in feature order with a
//     strict greater-than, exactly like the exact scanner.
//
// A useful exactness property of the subtraction: node totals and bin
// sums are always accumulated in global instance order, so when every
// parent instance of a bin routed to the directly-built sibling, the two
// sums are bit-equal and the derived bin is exactly 0.0 — emptiness
// survives the subtraction, which is what lets the scanner use
// "hessian sum > 0" as an exact occupancy test.

// histTrainer holds the level-wise histogram-binned split machinery.
type histTrainer struct {
	p        Params
	x        [][]float64
	grad     []float64 // shared with Train's boosting loop
	hess     []float64
	nFeature int

	// binOf[f][i] is the bin of instance i on feature f.
	binOf [][]uint8
	// edges[f][b] is the split threshold between bins b and b+1 of
	// feature f. Each edge is strictly greater than every value in bins
	// <= b and at most the smallest value in bin b+1, so the value
	// comparison "x < edge" routes exactly the instances with bin <= b
	// to the left — trained routing and Tree.Predict routing agree.
	edges [][]float64

	// nodePosOf[i] is instance i's position in the current level's
	// active-node list, or -1 once the instance settled in a leaf.
	nodePosOf []int32
}

// newHistTrainer bins every feature and returns the histogram-binned
// split searcher. A cancelled context leaves some features unbinned; the
// boosting loop re-checks the context before the builder is ever used.
func newHistTrainer(ctx context.Context, x [][]float64, grad, hess []float64, p Params) *histTrainer {
	n, d := len(x), len(x[0])
	ht := &histTrainer{p: p, x: x, grad: grad, hess: hess, nFeature: d}
	ht.nodePosOf = make([]int32, n)
	ht.binOf = make([][]uint8, d)
	ht.edges = make([][]float64, d)
	maxBins := p.maxBins()
	_ = runner.ForEach(ctx, p.Workers, d, func(_ context.Context, f int) error {
		ht.edges[f], ht.binOf[f] = binFeature(x, f, maxBins)
		return nil
	})
	return ht
}

// binFeature computes quantile bin edges for feature f and assigns every
// instance its bin. When the column has at most maxBins distinct values
// each distinct value gets its own bin, so every boundary the exact
// scanner would consider survives; otherwise boundaries are placed at
// the distinct-value gaps closest to the n/maxBins quantile marks.
// Degenerate midpoints (adjacent floats whose midpoint rounds onto the
// left value) are skipped so that "value < edge" stays equivalent to
// "bin <= b".
func binFeature(x [][]float64, f, maxBins int) (edges []float64, bins []uint8) {
	n := len(x)
	vals := make([]float64, n)
	for i, row := range x {
		vals[i] = row[f]
	}
	sort.Float64s(vals)

	// Distinct values with cumulative counts.
	type dv struct {
		v   float64
		cum int // instances with value <= v
	}
	distinct := make([]dv, 0, min(n, 4*maxBins))
	for i := 0; i < n; i++ {
		if len(distinct) > 0 && !(vals[i] > distinct[len(distinct)-1].v) {
			distinct[len(distinct)-1].cum = i + 1
			continue
		}
		distinct = append(distinct, dv{v: vals[i], cum: i + 1})
	}

	edges = make([]float64, 0, maxBins-1)
	cut := func(lo, hi float64) {
		mid := lo + (hi-lo)/2
		if mid > lo { // degenerate adjacent-float gap: merge instead
			edges = append(edges, mid)
		}
	}
	if len(distinct) <= maxBins {
		// One bin per distinct value.
		for j := 0; j+1 < len(distinct); j++ {
			cut(distinct[j].v, distinct[j+1].v)
		}
	} else {
		// Quantile merge: close the current bin at the first distinct-value
		// gap after each n/maxBins mark.
		for j := 0; j+1 < len(distinct) && len(edges) < maxBins-1; j++ {
			if distinct[j].cum*maxBins >= n*(len(edges)+1) {
				cut(distinct[j].v, distinct[j+1].v)
			}
		}
	}

	bins = make([]uint8, n)
	for i, row := range x {
		v := row[f]
		// bin = number of edges <= v (v == edge routes right of it).
		b := sort.Search(len(edges), func(e int) bool { return edges[e] > v })
		bins[i] = uint8(b)
	}
	return edges, bins
}

// levelNode is the per-level bookkeeping of one active tree node.
type levelNode struct {
	id     int32 // node index in the tree
	parent int32 // position of the parent in the previous level (-1 at root)
	sib    int32 // position of the sibling in this level (-1 at root)
	direct bool  // histogram built by accumulation (else parent minus sibling)
}

// buildTree grows one tree level-wise with histogram-binned splits.
func (ht *histTrainer) buildTree(ctx context.Context) Tree {
	p := ht.p
	n := len(ht.x)
	for i := range ht.nodePosOf {
		ht.nodePosOf[i] = 0
	}
	tree := Tree{Nodes: []Node{{Feature: -1}}}
	level := []levelNode{{id: 0, parent: -1, sib: -1, direct: true}}
	// Previous level's histograms, per feature, kept for the sibling
	// subtraction.
	var prevG, prevH [][]float64

	for depth := 0; len(level) > 0; depth++ {
		k := len(level)

		// Node totals, accumulated in global instance order on one
		// goroutine so they are independent of the worker count.
		gTot := make([]float64, k)
		hTot := make([]float64, k)
		for i := 0; i < n; i++ {
			if j := ht.nodePosOf[i]; j >= 0 {
				gTot[j] += ht.grad[i]
				hTot[j] += ht.hess[i]
			}
		}
		if depth >= p.MaxDepth {
			for j := range level {
				nd := &tree.Nodes[level[j].id]
				nd.Feature = -1
				nd.Value = -p.leafValue(gTot[j], hTot[j])
			}
			break
		}

		// Histogram build + bin scan, fanned across features. Each task
		// writes only its own feature's slots.
		curG := make([][]float64, ht.nFeature)
		curH := make([][]float64, ht.nFeature)
		featBest := make([][]splitChoice, ht.nFeature)
		_ = runner.ForEach(ctx, p.Workers, ht.nFeature, func(_ context.Context, f int) error {
			curG[f], curH[f] = ht.buildHistogram(f, level, prevG, prevH)
			featBest[f] = ht.scanHistogram(f, curG[f], curH[f], gTot, hTot)
			return nil
		})

		// Merge candidates in feature order with a strict greater-than, so
		// ties resolve to the lowest feature index exactly as the exact
		// scanner does.
		best := make([]splitChoice, k)
		for j := range best {
			best[j].gain = math.Inf(-1)
			best[j].feature = -1
		}
		for f := 0; f < ht.nFeature; f++ {
			for j, c := range featBest[f] {
				if c.feature >= 0 && c.gain > best[j].gain {
					best[j] = c
				}
			}
		}

		// Materialise the chosen splits. All writes go through the slice
		// index: appending children may reallocate the backing array.
		next := make([]levelNode, 0, 2*k)
		for j := range level {
			id := level[j].id
			if best[j].feature < 0 || best[j].gain <= 0 {
				tree.Nodes[id].Feature = -1
				tree.Nodes[id].Value = -p.leafValue(gTot[j], hTot[j])
				continue
			}
			left := int32(len(tree.Nodes))
			tree.Nodes = append(tree.Nodes, Node{Feature: -1}, Node{Feature: -1})
			tree.Nodes[id].Feature = best[j].feature
			tree.Nodes[id].Threshold = best[j].thresh
			tree.Nodes[id].Gain = best[j].gain
			tree.Nodes[id].Left, tree.Nodes[id].Right = left, left+1
			lp := int32(len(next))
			next = append(next,
				levelNode{id: left, parent: int32(j), sib: lp + 1},
				levelNode{id: left + 1, parent: int32(j), sib: lp})
		}

		// Reassign instances of split nodes to their children (settling the
		// rest as leaves) and count the children, the counts decide which
		// sibling is accumulated directly next level.
		posOf := make([]int32, len(tree.Nodes))
		for i := range posOf {
			posOf[i] = -1
		}
		for j := range next {
			posOf[next[j].id] = int32(j)
		}
		counts := make([]int, len(next))
		for i := 0; i < n; i++ {
			j := ht.nodePosOf[i]
			if j < 0 {
				continue
			}
			nd := &tree.Nodes[level[j].id]
			if nd.Feature < 0 {
				ht.nodePosOf[i] = -1
				continue
			}
			child := nd.Left
			if !(ht.x[i][nd.Feature] < nd.Threshold) {
				child = nd.Right
			}
			np := posOf[child]
			ht.nodePosOf[i] = np
			counts[np]++
		}
		// The smaller child of each pair accumulates directly; its sibling
		// is derived by subtraction. Ties go left, deterministically.
		for j := 0; j+1 < len(next); j += 2 {
			if counts[j] <= counts[j+1] {
				next[j].direct, next[j+1].direct = true, false
			} else {
				next[j].direct, next[j+1].direct = false, true
			}
		}
		prevG, prevH = curG, curH
		level = next
	}
	return tree
}

// buildHistogram accumulates feature f's per-node gradient/hessian
// histograms for the current level: direct nodes by an instance-order
// walk, derived nodes by subtracting the sibling from the parent.
func (ht *histTrainer) buildHistogram(f int, level []levelNode, prevG, prevH [][]float64) (g, h []float64) {
	nb := len(ht.edges[f]) + 1
	k := len(level)
	g = make([]float64, k*nb)
	h = make([]float64, k*nb)
	bins := ht.binOf[f]
	for i, gi := range ht.grad {
		j := ht.nodePosOf[i]
		if j < 0 || !level[j].direct {
			continue
		}
		o := int(j)*nb + int(bins[i])
		g[o] += gi
		h[o] += ht.hess[i]
	}
	for j := range level {
		if level[j].direct || level[j].parent < 0 {
			continue
		}
		// A cancelled context can cut the previous level's fan-out short,
		// leaving this feature's parent histograms unbuilt. The tree is
		// about to be discarded by the boosting loop; just don't fault.
		if prevG[f] == nil || prevH[f] == nil {
			continue
		}
		po := int(level[j].parent) * nb
		so := int(level[j].sib) * nb
		jo := j * nb
		for b := 0; b < nb; b++ {
			g[jo+b] = prevG[f][po+b] - g[so+b]
			h[jo+b] = prevH[f][po+b] - h[so+b]
		}
	}
	return g, h
}

// scanHistogram runs the split scan of one feature's histograms over the
// active nodes and returns the best candidate per node position (feature
// == -1 where the feature offers no valid split). Candidate boundaries
// must have occupied bins on both sides; per-bin hessian sums are exact
// zeros for empty bins (see the package comment at the top of this
// file), so "> 0" is an exact occupancy test.
func (ht *histTrainer) scanHistogram(f int, g, h []float64, gTot, hTot []float64) []splitChoice {
	p := ht.p
	nb := len(ht.edges[f]) + 1
	k := len(gTot)
	best := make([]splitChoice, k)
	for j := range best {
		best[j].gain = math.Inf(-1)
		best[j].feature = -1
	}
	if nb < 2 {
		return best
	}
	score := func(gg, hh float64) float64 {
		return gg * gg / (hh + p.Lambda)
	}
	for j := 0; j < k; j++ {
		gj := g[j*nb : (j+1)*nb]
		hj := h[j*nb : (j+1)*nb]
		// Boundaries at or after the last occupied bin cannot separate
		// the node.
		lastNZ := -1
		for b := nb - 1; b >= 0; b-- {
			if hj[b] > 0 {
				lastNZ = b
				break
			}
		}
		gl, hl := 0.0, 0.0
		occupied := false
		for b := 0; b < lastNZ; b++ {
			gl += gj[b]
			hl += hj[b]
			if hj[b] > 0 {
				occupied = true
			}
			if !occupied || hl < p.MinChildWeight || hTot[j]-hl < p.MinChildWeight {
				continue
			}
			gain := 0.5*(score(gl, hl)+score(gTot[j]-gl, hTot[j]-hl)-score(gTot[j], hTot[j])) - p.Gamma
			if gain > best[j].gain {
				best[j] = splitChoice{gain: gain, feature: int32(f), thresh: ht.edges[f][b]}
			}
		}
	}
	return best
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
