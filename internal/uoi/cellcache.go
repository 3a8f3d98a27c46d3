package uoi

import (
	"sync"

	"uoivar/internal/checkpoint"
	"uoivar/internal/mat"
	"uoivar/internal/resample"
)

// CellCache memoizes completed VAR bootstrap cells across fits. Keys are
// content hashes over every input that determines the cell's output — the
// cell index and resampling geometry, the solver configuration, the λ grid,
// the warm-start seed, and the content sequence of exactly the series rows
// the cell's bootstrap touches, in touch order — so a hit is only possible
// when recomputation would reproduce the identical bits. Keys are
// index-invariant: they hash what the bootstrap reads, not where in the
// window it reads it, so a cell whose rows slid to new window positions
// (streaming eviction) but whose bootstrap draws the same absolute rows
// (VARConfig.Anchored) still hits. That makes the cache purely an execution
// hint: streaming refits hand the same cache to consecutive fits and every
// cell whose bootstrap content is unchanged is skipped, while any cell
// whose content changed re-runs.
//
// The cache is safe for concurrent use (cells run on VARConfig.Workers
// goroutines), and the slices it returns may be retained but must not be
// mutated. It is a mutex-guarded two-generation map: Rotate (called between
// fits by the streaming engine) demotes the current generation and drops
// the previous one, so entries untouched for two consecutive fits are
// evicted and a long-lived cache stays bounded by roughly two fits' worth
// of cells. A hit in the demoted generation is promoted back, keeping
// stable cells alive indefinitely.
type CellCache struct {
	mu           sync.Mutex
	selCur       map[uint64][]bool
	selPrev      map[uint64][]bool
	estCur       map[uint64][]float64
	estPrev      map[uint64][]float64
	hits, misses int64
}

// NewCellCache returns an empty CellCache.
func NewCellCache() *CellCache {
	return &CellCache{
		selCur: map[uint64][]bool{}, selPrev: map[uint64][]bool{},
		estCur: map[uint64][]float64{}, estPrev: map[uint64][]float64{},
	}
}

// GetSel returns the memoized selection-cell support indicators.
func (c *CellCache) GetSel(key uint64) ([]bool, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.selCur[key]; ok {
		c.hits++
		return v, true
	}
	if v, ok := c.selPrev[key]; ok {
		c.hits++
		c.selCur[key] = v // promote: still in use
		return v, true
	}
	c.misses++
	return nil, false
}

// PutSel stores a completed selection cell's support indicators.
func (c *CellCache) PutSel(key uint64, sup []bool) {
	c.mu.Lock()
	c.selCur[key] = sup
	c.mu.Unlock()
}

// GetEst returns the memoized estimation-cell winner.
func (c *CellCache) GetEst(key uint64) ([]float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.estCur[key]; ok {
		c.hits++
		return v, true
	}
	if v, ok := c.estPrev[key]; ok {
		c.hits++
		c.estCur[key] = v
		return v, true
	}
	c.misses++
	return nil, false
}

// PutEst stores a completed estimation cell's winner.
func (c *CellCache) PutEst(key uint64, beta []float64) {
	c.mu.Lock()
	c.estCur[key] = beta
	c.mu.Unlock()
}

// Rotate starts a new generation: the current cells become the previous
// generation and anything already demoted is evicted. Call once per fit.
func (c *CellCache) Rotate() {
	c.mu.Lock()
	c.selPrev, c.selCur = c.selCur, map[uint64][]bool{}
	c.estPrev, c.estCur = c.estCur, map[uint64][]float64{}
	c.mu.Unlock()
}

// Stats reports cumulative cache hits and misses.
func (c *CellCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// hashTargetRows folds into h the CONTENT SEQUENCE a cell's design
// construction reads: for each bootstrap target t, in target order, the
// bytes of series rows t−d .. t (the lag stack plus the response row).
// Row indices deliberately stay out of the hash — the design matrices,
// and therefore the cell's output, are a function of this content
// sequence alone. That index-invariance is what lets a slid window hit:
// after the streaming buffer evicts rows, an anchored bootstrap that
// draws the same absolute rows produces the same content sequence at
// different window indices, and the key matches. (Each target contributes
// exactly d+1 rows and AddFloats is length-prefixed, so the encoding is
// self-delimiting — no two distinct sequences collide by framing.)
func hashTargetRows(h *checkpoint.Hasher, series *mat.Dense, targets []int, d int) {
	for _, t := range targets {
		for r := t - d; r <= t; r++ {
			h.AddFloats(series.Row(r))
		}
	}
}

// cellKey starts the key of VAR cell k of the given kind (1 selection, 2
// estimation): the cell's identity and resampling geometry.
func cellKey(kind uint64, k, m, blockLen int, c *VARConfig) *checkpoint.Hasher {
	h := checkpoint.NewHasher()
	for _, v := range []uint64{kind, c.Seed, uint64(k), uint64(m), uint64(blockLen), uint64(c.Order), bit(c.NoIntercept)} {
		h.AddUint64(v)
	}
	return h
}

// selCellKey hashes every input of UoI_VAR selection cell k: cell identity
// and resampling geometry, solver tolerances, the λ grid, the warm-start
// seed, and the touched series rows.
func selCellKey(series *mat.Dense, k, m, blockLen int, lambdas []float64, c *VARConfig) uint64 {
	h := cellKey(1, k, m, blockLen, c)
	hashSolves(h, &c.ADMM, c.L2, c.SupportTol)
	h.AddFloats(lambdas)
	h.AddFloats(c.WarmBeta)
	hashTargetRows(h, series, varSelTargets(resample.NewRNG(c.Seed), k, m, blockLen, c), c.Order)
	return h.Sum()
}

// estCellKey hashes every input of UoI_VAR estimation cell k: cell
// identity, split geometry, the candidate support family, and the touched
// series rows.
func estCellKey(series *mat.Dense, k, m, blockLen int, distinct [][]int, c *VARConfig) uint64 {
	h := cellKey(2, k, m, blockLen, c)
	h.AddFloat(c.TrainFrac)
	h.AddUint64(uint64(len(distinct)))
	for _, s := range distinct {
		h.AddUint64(uint64(len(s)))
		for _, v := range s {
			h.AddUint64(uint64(v))
		}
	}
	rng := resample.NewRNG(c.Seed).Derive(1_000_000 + uint64(k))
	trainIdx, evalIdx := resample.BlockTrainEvalSplit(rng, m, blockLen, c.TrainFrac)
	hashTargetRows(h, series, designTargets(c.Order, append(trainIdx, evalIdx...)), c.Order)
	return h.Sum()
}
