package resample

import "fmt"

// Bootstrap draws n indices uniformly with replacement from [0, n): the iid
// bootstrap used by UoI_LASSO's Map steps (Algorithm 1 lines 3, 14).
func Bootstrap(rng *RNG, n int) []int {
	if n <= 0 {
		panic("resample: Bootstrap with non-positive n")
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = rng.Intn(n)
	}
	return idx
}

// Multiplicities turns a draw with replacement from [0, n) into its distinct
// indices in ascending order and how often each was drawn. A statistic that
// is a sum over the sample — a Gram matrix, Xᵀy — is then the count-weighted
// sum over the distinct original rows (about 63 % of n for an iid bootstrap),
// read in memory order with no gathered copy.
func Multiplicities(idx []int, n int) (rows []int, counts []float64) {
	tally := make([]int32, n)
	distinct := 0
	for _, i := range idx {
		if tally[i] == 0 {
			distinct++
		}
		tally[i]++
	}
	rows = make([]int, 0, distinct)
	counts = make([]float64, 0, distinct)
	for i, c := range tally {
		if c > 0 {
			rows = append(rows, i)
			counts = append(counts, float64(c))
		}
	}
	return rows, counts
}

// TrainEvalSplit shuffles [0, n) and splits it into a training set of
// ceil(frac·n) indices and an evaluation set of the rest. UoI_LASSO's model
// estimation uses such resampled train/evaluation pairs (Algorithm 1 lines
// 14–16) with Tier-2 reshuffling providing the randomization (Figure 1c).
func TrainEvalSplit(rng *RNG, n int, frac float64) (train, eval []int) {
	if n <= 1 {
		panic("resample: TrainEvalSplit needs n > 1")
	}
	if frac <= 0 || frac >= 1 {
		panic(fmt.Sprintf("resample: train fraction %v outside (0,1)", frac))
	}
	p := rng.Perm(n)
	k := int(float64(float64(n)*frac) + 0.5)
	if k < 1 {
		k = 1
	}
	if k >= n {
		k = n - 1
	}
	return p[:k], p[k:]
}

// MovingBlockBootstrap draws a block bootstrap sample of n indices from a
// series of length n using overlapping blocks of the given length: blocks
// start at uniform positions in [0, n-blockLen] and are concatenated until n
// indices are produced (the last block is truncated). This is the "randomly
// selecting time series blocks" scheme of §III-B2, preserving within-block
// temporal dependence.
func MovingBlockBootstrap(rng *RNG, n, blockLen int) []int {
	if n <= 0 {
		panic("resample: MovingBlockBootstrap with non-positive n")
	}
	if blockLen <= 0 {
		panic("resample: non-positive block length")
	}
	if blockLen > n {
		blockLen = n
	}
	idx := make([]int, 0, n+blockLen)
	for len(idx) < n {
		start := rng.Intn(n - blockLen + 1)
		for j := 0; j < blockLen && len(idx) < n; j++ {
			idx = append(idx, start+j)
		}
	}
	return idx
}

// AnchoredBlockBootstrap draws a block bootstrap sample whose identity
// depends only on ABSOLUTE stream coordinates, not on where the window
// currently sits. Observations live at absolute positions
// [anchor, anchor+n); candidate blocks are the fixed grid blocks
// [k·blockLen, (k+1)·blockLen) that lie entirely inside that range, and
// each of the ⌈n/blockLen⌉ output slots picks the candidate minimizing a
// per-(slot, block) hash derived from rng's stream. Two windows that
// cover the same grid-block set therefore draw the same absolute rows, so
// a streaming refit after a small slide (one that crosses no grid
// boundary) resamples the same observations as the fit before it. Returns
// n window-relative indices in [0, n).
//
// The window must cover at least one whole grid block
// (n ≥ 2·blockLen−1 guarantees this at any alignment); panics otherwise.
func AnchoredBlockBootstrap(rng *RNG, anchor int64, n, blockLen int) []int {
	if n <= 0 {
		panic("resample: AnchoredBlockBootstrap with non-positive n")
	}
	if blockLen <= 0 {
		panic("resample: non-positive block length")
	}
	if anchor < 0 {
		panic("resample: negative anchor")
	}
	bl := int64(blockLen)
	// First and last grid blocks wholly inside [anchor, anchor+n).
	kLo := (anchor + bl - 1) / bl
	kHi := (anchor + int64(n) - bl) / bl
	if kHi < kLo {
		panic(fmt.Sprintf("resample: window of %d rows at offset %d covers no whole block of length %d", n, anchor, blockLen))
	}
	idx := make([]int, 0, n+blockLen)
	for slot := uint64(0); len(idx) < n; slot++ {
		s := rng.Derive(slot + 1)
		bestK, bestH := kLo, uint64(0)
		for k := kLo; k <= kHi; k++ {
			h := s.Derive(uint64(k) + 1).Uint64()
			if k == kLo || h < bestH {
				bestK, bestH = k, h
			}
		}
		start := int(bestK*bl - anchor)
		for j := 0; j < blockLen && len(idx) < n; j++ {
			idx = append(idx, start+j)
		}
	}
	return idx
}

// BlockTrainEvalSplit splits a time series of length n into contiguous
// blocks of blockLen and assigns whole blocks to train/eval with the given
// training fraction, preserving temporal structure within each side.
func BlockTrainEvalSplit(rng *RNG, n, blockLen int, frac float64) (train, eval []int) {
	if blockLen <= 0 || blockLen > n {
		panic("resample: bad block length")
	}
	if frac <= 0 || frac >= 1 {
		panic("resample: bad train fraction")
	}
	numBlocks := (n + blockLen - 1) / blockLen
	if numBlocks < 2 {
		panic("resample: need at least two blocks to split")
	}
	order := rng.Perm(numBlocks)
	kTrain := int(float64(float64(numBlocks)*frac) + 0.5)
	if kTrain < 1 {
		kTrain = 1
	}
	if kTrain >= numBlocks {
		kTrain = numBlocks - 1
	}
	inTrain := make([]bool, numBlocks)
	for _, b := range order[:kTrain] {
		inTrain[b] = true
	}
	for b := 0; b < numBlocks; b++ {
		lo := b * blockLen
		hi := lo + blockLen
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			if inTrain[b] {
				train = append(train, i)
			} else {
				eval = append(eval, i)
			}
		}
	}
	return train, eval
}
