// Package model defines the versioned on-disk artifact for fitted UoI
// models — the persistence half of the training/inference split. A fit
// (uoi.Result / uoi.VARResult) lives only as long as its process; an
// Artifact survives it: sparse coefficient matrices, intercepts, the lag
// order, the fit configuration and seed, and selection statistics, in the
// internal/envelope container (length-prefixed sections with per-section
// CRC32 checksums, written atomically).
//
// Layout (schema uoivar/model/v1, all integers little-endian):
//
//	magic   8 bytes  "UOIMDL\x00\x01"
//	version u32      format major version (1)
//	meta    u64 len | len bytes JSON | u32 CRC32-IEEE
//	coef    u64 len | len bytes binary | u32 CRC32-IEEE
//
// The meta section is JSON so foreign tooling can inspect an artifact with
// `dd`+`jq`; the coefficient section is binary float64 bits so estimates
// round-trip exactly (Save→Load preserves every coefficient bit, which the
// serving layer's bit-identical-forecast guarantee builds on).
//
// Errors: structural damage — bad magic, short file, checksum mismatch,
// inconsistent counts — is ErrCorrupt; a file from a future format or an
// unknown model kind is ErrSchema. Both are terminal; the parser never
// panics on hostile input (fuzzed).
package model

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"uoivar/internal/envelope"
	"uoivar/internal/mat"
	"uoivar/internal/uoi"
)

// Schema identifies the artifact layout; Load rejects others with ErrSchema.
const Schema = "uoivar/model/v1"

// formatVersion is the binary container major version. Readers accept only
// their own major version: a bump means the section framing itself changed.
const formatVersion = 1

// magic identifies a UoI model artifact file.
var magic = [8]byte{'U', 'O', 'I', 'M', 'D', 'L', 0, 1}

// format is the artifact's container: magic, version, and the meta and
// coefficient sections, with damage reported as ErrCorrupt / ErrSchema.
var format = &envelope.Format{Magic: magic, Version: formatVersion, Corrupt: ErrCorrupt, Schema: ErrSchema}

// Ext is the conventional artifact file extension (the serve registry's
// directory scan looks for it).
const Ext = ".uoim"

// ErrCorrupt reports a structurally damaged artifact: truncation, checksum
// mismatch, bad magic, or internally inconsistent coefficient counts.
var ErrCorrupt = errors.New("model: corrupt artifact")

// ErrSchema reports a structurally intact artifact this reader does not
// understand: a future format version, an unknown schema string, or an
// unknown model kind.
var ErrSchema = errors.New("model: unsupported artifact schema")

// Model kinds.
const (
	KindVAR   = "var"
	KindLasso = "lasso"
)

// FitConfig is the fit-configuration snapshot stored in an artifact —
// enough to rerun or audit the fit, without the non-serializable fields
// (tracers, fault hooks) of the live configs.
type FitConfig struct {
	B1            int     `json:"b1,omitempty"`             // selection bootstraps
	B2            int     `json:"b2,omitempty"`             // estimation bootstraps
	Q             int     `json:"q,omitempty"`              // λ-grid size
	LambdaRatio   float64 `json:"lambda_ratio,omitempty"`   // λ_min/λ_max for the log grid
	TrainFrac     float64 `json:"train_frac,omitempty"`     // estimation train/eval split
	SupportTol    float64 `json:"support_tol,omitempty"`    // |β| threshold for support membership
	SelectionFrac float64 `json:"selection_frac,omitempty"` // soft-intersection fraction (1 = strict)
	L2            float64 `json:"l2,omitempty"`             // elastic-net ℓ2 weight (0 = pure lasso)
	MedianUnion   bool    `json:"median_union,omitempty"`   // robust median union instead of mean
}

// SelectionStats summarizes the fit the artifact came from.
type SelectionStats struct {
	SupportSize int `json:"support_size"`           // nonzero coefficients in the final model
	Lambdas     int `json:"lambdas,omitempty"`      // λ-grid size actually used
	B1Completed int `json:"b1_completed,omitempty"` // selection bootstraps that completed
	B1Failed    int `json:"b1_failed,omitempty"`    // selection bootstraps dropped under quorum mode
	B2Completed int `json:"b2_completed,omitempty"` // estimation bootstraps that completed
	B2Failed    int `json:"b2_failed,omitempty"`    // estimation bootstraps dropped under quorum mode
}

// Meta is the JSON metadata section of an artifact.
type Meta struct {
	// Schema is always the package Schema constant.
	Schema string `json:"schema"`
	Kind   string `json:"kind"` // "var" | "lasso"
	// P is the series dimension (VAR) or feature count (lasso).
	P int `json:"p"`
	// Order is the VAR lag order d (0 for lasso artifacts).
	Order int `json:"order,omitempty"`
	// Intercept records whether the model carries an intercept term.
	Intercept bool `json:"intercept,omitempty"`
	// Seed is the root RNG seed the fit ran with.
	Seed uint64 `json:"seed,omitempty"`
	// Config snapshots the fit configuration (see FitConfig).
	Config FitConfig `json:"config"`
	// Stats summarizes the fit outcome (see SelectionStats).
	Stats SelectionStats `json:"stats"`
}

// Artifact is an in-memory model artifact: metadata plus exact (bit-level)
// coefficient matrices. VAR artifacts carry A/Mu; lasso artifacts carry
// Beta/Intercept.
type Artifact struct {
	// Meta is the artifact's JSON metadata section.
	Meta Meta
	// A holds the VAR lag matrices A_1..A_d (each p×p).
	A []*mat.Dense
	// Mu is the VAR intercept (nil when Meta.Intercept is false).
	Mu []float64
	// Beta is the lasso coefficient vector.
	Beta []float64
	// Intercept is the lasso offset.
	Intercept float64
}

// FromVAR snapshots a fitted UoI_VAR result as an artifact. cfg may be nil
// (defaults are recorded as zeros).
func FromVAR(res *uoi.VARResult, cfg *uoi.VARConfig) *Artifact {
	a := &Artifact{A: res.A}
	nnz := 0
	for _, aj := range res.A {
		for _, v := range aj.Data {
			if v != 0 {
				nnz++
			}
		}
	}
	a.Meta = Meta{
		Schema: Schema,
		Kind:   KindVAR,
		P:      res.A[0].Rows,
		Order:  len(res.A),
		Stats:  SelectionStats{SupportSize: nnz, Lambdas: len(res.Lambdas)},
	}
	intercept := true
	if cfg != nil {
		intercept = !cfg.NoIntercept
		a.Meta.Seed = cfg.Seed
		a.Meta.Config = FitConfig{
			B1: cfg.B1, B2: cfg.B2, Q: cfg.Q, LambdaRatio: cfg.LambdaRatio,
			TrainFrac: cfg.TrainFrac, SupportTol: cfg.SupportTol,
			SelectionFrac: cfg.SelectionFrac, L2: cfg.L2, MedianUnion: cfg.MedianUnion,
		}
	}
	a.Meta.Intercept = intercept
	if intercept {
		a.Mu = res.Mu
	}
	return a
}

// FromLasso snapshots a fitted UoI_LASSO result as an artifact. cfg may be
// nil.
func FromLasso(res *uoi.Result, cfg *uoi.LassoConfig) *Artifact {
	a := &Artifact{Beta: res.Beta, Intercept: res.Intercept}
	a.Meta = Meta{
		Schema:    Schema,
		Kind:      KindLasso,
		P:         len(res.Beta),
		Intercept: res.Intercept != 0,
		Stats: SelectionStats{
			SupportSize: len(res.SelectedSupport),
			Lambdas:     len(res.Lambdas),
			B1Completed: res.Bootstrap.B1Completed,
			B1Failed:    res.Bootstrap.B1Failed,
			B2Completed: res.Bootstrap.B2Completed,
			B2Failed:    res.Bootstrap.B2Failed,
		},
	}
	if cfg != nil {
		a.Meta.Seed = cfg.Seed
		a.Meta.Config = FitConfig{
			B1: cfg.B1, B2: cfg.B2, Q: cfg.Q, LambdaRatio: cfg.LambdaRatio,
			TrainFrac: cfg.TrainFrac, SupportTol: cfg.SupportTol,
			SelectionFrac: cfg.SelectionFrac, L2: cfg.L2, MedianUnion: cfg.MedianUnion,
		}
	}
	return a
}

// validate checks an artifact's internal consistency before serialization
// (and after construction from parsed sections).
func (a *Artifact) validate() error {
	m := &a.Meta
	if m.Schema != Schema {
		return fmt.Errorf("%w: schema %q", ErrSchema, m.Schema)
	}
	switch m.Kind {
	case KindVAR:
		if m.P <= 0 || m.Order <= 0 || len(a.A) != m.Order {
			return fmt.Errorf("%w: var artifact p=%d order=%d with %d lag matrices", ErrCorrupt, m.P, m.Order, len(a.A))
		}
		for j, aj := range a.A {
			if aj == nil || aj.Rows != m.P || aj.Cols != m.P {
				return fmt.Errorf("%w: lag matrix %d is not %d×%d", ErrCorrupt, j, m.P, m.P)
			}
		}
		if m.Intercept && len(a.Mu) != m.P {
			return fmt.Errorf("%w: intercept of length %d, want %d", ErrCorrupt, len(a.Mu), m.P)
		}
	case KindLasso:
		if m.P <= 0 || len(a.Beta) != m.P {
			return fmt.Errorf("%w: lasso artifact p=%d with %d coefficients", ErrCorrupt, m.P, len(a.Beta))
		}
	default:
		return fmt.Errorf("%w: unknown kind %q", ErrSchema, m.Kind)
	}
	return nil
}

// encodeCoef serializes the coefficient section: per matrix a sparse
// (row, col, bits) triplet list — UoI estimates are sparse by construction,
// and exact zeros (the off-union entries) cost nothing — then the dense
// intercept vector.
func (a *Artifact) encodeCoef() []byte {
	var buf []byte
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	switch a.Meta.Kind {
	case KindVAR:
		u32(uint32(a.Meta.Order))
		u32(uint32(a.Meta.P))
		for _, aj := range a.A {
			nnz := 0
			for _, v := range aj.Data {
				if v != 0 {
					nnz++
				}
			}
			u64(uint64(nnz))
			for i := 0; i < aj.Rows; i++ {
				row := aj.Row(i)
				for j, v := range row {
					if v != 0 {
						u32(uint32(i))
						u32(uint32(j))
						u64(math.Float64bits(v))
					}
				}
			}
		}
		if a.Mu != nil {
			buf = append(buf, 1)
			for _, v := range a.Mu {
				u64(math.Float64bits(v))
			}
		} else {
			buf = append(buf, 0)
		}
	case KindLasso:
		u64(uint64(len(a.Beta)))
		nnz := 0
		for _, v := range a.Beta {
			if v != 0 {
				nnz++
			}
		}
		u64(uint64(nnz))
		for i, v := range a.Beta {
			if v != 0 {
				u64(uint64(i))
				u64(math.Float64bits(v))
			}
		}
		u64(math.Float64bits(a.Intercept))
	}
	return buf
}

// decodeCoef parses the coefficient section against the already-validated
// meta. All counts are cross-checked against the section length before any
// allocation sized from them.
func decodeCoef(meta *Meta, buf []byte) (*Artifact, error) {
	a := &Artifact{Meta: *meta}
	r := format.Reader(buf, "coefficient section")
	switch meta.Kind {
	case KindVAR:
		d, err := r.U32()
		if err != nil {
			return nil, err
		}
		p, err := r.U32()
		if err != nil {
			return nil, err
		}
		if int(d) != meta.Order || int(p) != meta.P {
			return nil, fmt.Errorf("%w: coefficient header (d=%d, p=%d) disagrees with meta (d=%d, p=%d)",
				ErrCorrupt, d, p, meta.Order, meta.P)
		}
		a.A = make([]*mat.Dense, meta.Order)
		for j := range a.A {
			nnz, err := r.U64()
			if err != nil {
				return nil, err
			}
			if nnz > uint64(r.Remaining())/16 || nnz > uint64(meta.P)*uint64(meta.P) {
				return nil, fmt.Errorf("%w: lag %d claims %d nonzeros", ErrCorrupt, j, nnz)
			}
			aj := mat.NewDense(meta.P, meta.P)
			for k := uint64(0); k < nnz; k++ {
				ri, err := r.U32()
				if err != nil {
					return nil, err
				}
				ci, err := r.U32()
				if err != nil {
					return nil, err
				}
				bits, err := r.U64()
				if err != nil {
					return nil, err
				}
				if int(ri) >= meta.P || int(ci) >= meta.P {
					return nil, fmt.Errorf("%w: lag %d entry (%d,%d) outside %d×%d", ErrCorrupt, j, ri, ci, meta.P, meta.P)
				}
				aj.Set(int(ri), int(ci), math.Float64frombits(bits))
			}
			a.A[j] = aj
		}
		hasMu, err := r.U8()
		if err != nil {
			return nil, err
		}
		if hasMu > 1 {
			return nil, fmt.Errorf("%w: intercept flag %d", ErrCorrupt, hasMu)
		}
		if hasMu == 1 {
			a.Mu = make([]float64, meta.P)
			for i := range a.Mu {
				bits, err := r.U64()
				if err != nil {
					return nil, err
				}
				a.Mu[i] = math.Float64frombits(bits)
			}
		}
		if meta.Intercept != (hasMu == 1) {
			return nil, fmt.Errorf("%w: meta intercept=%v but coefficient section says %v", ErrCorrupt, meta.Intercept, hasMu == 1)
		}
	case KindLasso:
		plen, err := r.U64()
		if err != nil {
			return nil, err
		}
		if int64(plen) != int64(meta.P) {
			return nil, fmt.Errorf("%w: coefficient length %d disagrees with meta p=%d", ErrCorrupt, plen, meta.P)
		}
		nnz, err := r.U64()
		if err != nil {
			return nil, err
		}
		if nnz > uint64(r.Remaining())/16 || nnz > plen {
			return nil, fmt.Errorf("%w: %d nonzeros in a length-%d vector", ErrCorrupt, nnz, plen)
		}
		a.Beta = make([]float64, meta.P)
		for k := uint64(0); k < nnz; k++ {
			idx, err := r.U64()
			if err != nil {
				return nil, err
			}
			bits, err := r.U64()
			if err != nil {
				return nil, err
			}
			if idx >= plen {
				return nil, fmt.Errorf("%w: coefficient index %d outside %d", ErrCorrupt, idx, plen)
			}
			a.Beta[idx] = math.Float64frombits(bits)
		}
		bits, err := r.U64()
		if err != nil {
			return nil, err
		}
		a.Intercept = math.Float64frombits(bits)
	default:
		return nil, fmt.Errorf("%w: unknown kind %q", ErrSchema, meta.Kind)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after coefficients", ErrCorrupt, r.Remaining())
	}
	return a, nil
}

// Encode serializes the artifact to its binary form.
func (a *Artifact) Encode() ([]byte, error) {
	if a.Meta.Schema == "" {
		a.Meta.Schema = Schema
	}
	if err := a.validate(); err != nil {
		return nil, err
	}
	metaJSON, err := json.Marshal(&a.Meta)
	if err != nil {
		return nil, err
	}
	return format.Encode(metaJSON, a.encodeCoef()), nil
}

// Decode parses an artifact from its binary form. Damage returns ErrCorrupt;
// a future format or schema returns ErrSchema; Decode never panics.
func Decode(data []byte) (*Artifact, error) {
	sections, err := format.Decode(data, 2)
	if err != nil {
		return nil, err
	}
	metaJSON, coef := sections[0], sections[1]
	var meta Meta
	if err := json.Unmarshal(metaJSON, &meta); err != nil {
		return nil, fmt.Errorf("%w: meta section: %v", ErrCorrupt, err)
	}
	if meta.Schema != Schema {
		return nil, fmt.Errorf("%w: schema %q (this reader understands %q)", ErrSchema, meta.Schema, Schema)
	}
	if meta.Kind != KindVAR && meta.Kind != KindLasso {
		return nil, fmt.Errorf("%w: unknown kind %q", ErrSchema, meta.Kind)
	}
	if meta.P <= 0 || meta.P > 1<<24 || meta.Order < 0 || meta.Order > 1<<16 {
		return nil, fmt.Errorf("%w: meta p=%d order=%d", ErrCorrupt, meta.P, meta.Order)
	}
	if meta.Kind == KindVAR && meta.Order == 0 {
		return nil, fmt.Errorf("%w: var artifact with order 0", ErrCorrupt)
	}
	a, err := decodeCoef(&meta, coef)
	if err != nil {
		return nil, err
	}
	if err := a.validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// Save writes the artifact to path atomically (temp file + fsync + rename),
// so a serving registry watching the path never observes a half-written
// file.
func Save(path string, a *Artifact) error { return envelope.Save(path, ".uoim-*", a) }

// Load reads and fully validates an artifact from path.
func Load(path string) (*Artifact, error) { return envelope.Load(path, Decode) }
