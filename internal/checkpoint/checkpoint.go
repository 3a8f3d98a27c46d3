// Package checkpoint provides the durable, versioned checkpoint format for
// long UoI fits — the restart half of the fault-tolerance story. The fault
// layer (internal/fault, internal/mpi) lets a fit *degrade* when ranks die;
// a checkpoint lets it *resume*: because UoI's bootstrap structure is
// embarrassingly parallel and every (bootstrap, λ) selection cell and every
// estimation bootstrap is an independent pure function of (seed, data), a
// checkpoint is simply the union of completed cells. A resumed fit skips
// them, re-shards the remaining cells across however many ranks it now has,
// and produces coefficients bit-identical to the uninterrupted run.
//
// Layout (schema uoivar/ckpt/v1, all integers little-endian; the
// internal/envelope container, shared with .uoim model artifacts):
//
//	magic   8 bytes  "UOICKPT\x01"
//	version u32      format major version (1)
//	meta    u64 len | len bytes JSON | u32 CRC32-IEEE
//	cells   u64 len | len bytes binary | u32 CRC32-IEEE
//
// The meta section is JSON (inspectable with dd+jq); the cells section is
// binary: the λ grid as raw float64 bits (JSON would round them, breaking
// bit-identical resume), per-λ selection support bitsets, and estimation
// winner coefficients as exact sparse triplets.
//
// Errors: structural damage — bad magic, truncation, checksum mismatch,
// out-of-range cell indices — is ErrCorrupt; a structurally intact file from
// a future format is ErrSchema; a valid checkpoint that belongs to a
// different fit (other data, seed, or configuration, detected via the
// fingerprint and the λ grid) is ErrMismatch. The parser never panics on
// hostile input (fuzzed).
package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"

	"uoivar/internal/envelope"
)

// Schema identifies the checkpoint layout; Load rejects others with
// ErrSchema.
const Schema = "uoivar/ckpt/v1"

// formatVersion is the binary container major version. Readers accept only
// their own major version: a bump means the section framing itself changed.
const formatVersion = 1

// magic identifies a UoI checkpoint file.
var magic = [8]byte{'U', 'O', 'I', 'C', 'K', 'P', 'T', 1}

// format is the checkpoint's container: magic, version, and the meta and
// cells sections, with damage reported as ErrCorrupt / ErrSchema.
var format = &envelope.Format{Magic: magic, Version: formatVersion, Corrupt: ErrCorrupt, Schema: ErrSchema}

// ErrCorrupt reports a structurally damaged checkpoint: truncation, checksum
// mismatch, bad magic, or internally inconsistent cell data.
var ErrCorrupt = errors.New("checkpoint: corrupt checkpoint")

// ErrSchema reports a structurally intact checkpoint this reader does not
// understand: a future format version or an unknown schema string.
var ErrSchema = errors.New("checkpoint: unsupported checkpoint schema")

// ErrMismatch reports a valid checkpoint that belongs to a different fit —
// other data, seed, λ grid, or configuration. Resuming it would silently
// combine cells from two different problems, so the caller must refuse.
var ErrMismatch = errors.New("checkpoint: checkpoint does not match this fit")

// Checkpointed fit kinds, matching the model-artifact kind strings.
const (
	// KindLasso marks a UoI_LASSO checkpoint.
	KindLasso = "lasso"
	// KindVAR marks a UoI_VAR checkpoint.
	KindVAR = "var"
)

// Cell statuses as stored in the binary section.
const (
	cellDone    = 1 // completed; payload follows
	cellDropped = 2 // failed under quorum mode and durably dropped; no payload
)

// Meta is the JSON metadata section of a checkpoint: enough to identify the
// fit a checkpoint belongs to and to size every cell payload.
type Meta struct {
	// Schema is always the package Schema constant.
	Schema string `json:"schema"`
	// Kind is the algorithm family: KindLasso or KindVAR.
	Kind string `json:"kind"`
	// Seed is the fit's root RNG seed. Cells are pure functions of
	// (Seed, data, cell index), which is what makes them resumable.
	Seed uint64 `json:"seed"`
	// B1 is the selection bootstrap count.
	B1 int `json:"b1"`
	// B2 is the estimation bootstrap count.
	B2 int `json:"b2"`
	// P is the coefficient length: the feature count for lasso, the
	// vectorized length q·p for VAR.
	P int `json:"p"`
	// Q is the λ-grid size (selection cell payloads are Q·P bits).
	Q int `json:"q"`
	// Order is the VAR lag order d (0 for lasso checkpoints).
	Order int `json:"order,omitempty"`
	// Intercept records whether the VAR design carries an intercept term.
	Intercept bool `json:"intercept,omitempty"`
	// Fingerprint is an FNV-1a hash over the fit's data and configuration
	// (see Hasher); Matches rejects checkpoints whose fingerprint differs.
	Fingerprint uint64 `json:"fingerprint"`
}

// validate bounds-checks a parsed meta before any allocation is sized from
// it.
func (m *Meta) validate() error {
	if m.Schema != Schema {
		return fmt.Errorf("%w: schema %q (this reader understands %q)", ErrSchema, m.Schema, Schema)
	}
	if m.Kind != KindLasso && m.Kind != KindVAR {
		return fmt.Errorf("%w: unknown kind %q", ErrSchema, m.Kind)
	}
	if m.B1 <= 0 || m.B1 > 1<<20 || m.B2 <= 0 || m.B2 > 1<<20 {
		return fmt.Errorf("%w: meta b1=%d b2=%d", ErrCorrupt, m.B1, m.B2)
	}
	if m.P <= 0 || m.P > 1<<28 || m.Q <= 0 || m.Q > 1<<16 {
		return fmt.Errorf("%w: meta p=%d q=%d", ErrCorrupt, m.P, m.Q)
	}
	if m.Order < 0 || m.Order > 1<<16 {
		return fmt.Errorf("%w: meta order=%d", ErrCorrupt, m.Order)
	}
	// Cap the total decoded size a hostile meta can demand (~1 GiB of
	// selection bitset per cell would otherwise be reachable).
	if int64(m.P)*int64(m.Q) > 1<<30 {
		return fmt.Errorf("%w: meta q·p=%d exceeds the decoder cap", ErrCorrupt, int64(m.P)*int64(m.Q))
	}
	return nil
}

// selCell is one recorded selection bootstrap: its per-(λ, coefficient)
// support indicators (flattened j·P+i, length Q·P), or a durable drop.
type selCell struct {
	dropped bool
	support []bool
}

// estCell is one recorded estimation bootstrap: its winning coefficient
// vector (length P, exact float64 bits), or a durable drop.
type estCell struct {
	dropped bool
	beta    []float64
}

// State is an in-memory checkpoint: the fit identity (Meta plus the exact λ
// grid) and the union of recorded cells. It is safe for concurrent use by
// bootstrap workers; Encode snapshots under the same lock.
type State struct {
	meta    Meta
	lambdas []float64

	mu  sync.Mutex
	sel map[int]selCell
	est map[int]estCell
}

// New creates an empty checkpoint state for a fit with the given identity
// and λ grid.
func New(meta Meta, lambdas []float64) *State {
	meta.Schema = Schema
	return &State{
		meta:    meta,
		lambdas: append([]float64(nil), lambdas...),
		sel:     map[int]selCell{},
		est:     map[int]estCell{},
	}
}

// Meta returns the checkpoint's fit identity.
func (s *State) Meta() Meta { return s.meta }

// Lambdas returns the recorded λ grid (the caller must not mutate it).
func (s *State) Lambdas() []float64 { return s.lambdas }

// Matches reports whether the checkpoint belongs to the fit identified by
// meta and lambdas; a disagreement returns an error wrapping ErrMismatch
// naming the first differing field. Fingerprint and λ bits are compared
// exactly: resuming across different data or config would not be a resume.
func (s *State) Matches(meta Meta, lambdas []float64) error {
	meta.Schema = Schema
	if s.meta != meta {
		return fmt.Errorf("%w: checkpoint meta %+v, fit meta %+v", ErrMismatch, s.meta, meta)
	}
	if len(s.lambdas) != len(lambdas) {
		return fmt.Errorf("%w: checkpoint has %d λ values, fit has %d", ErrMismatch, len(s.lambdas), len(lambdas))
	}
	for i := range lambdas {
		if math.Float64bits(s.lambdas[i]) != math.Float64bits(lambdas[i]) {
			return fmt.Errorf("%w: λ[%d] differs (%v vs %v)", ErrMismatch, i, s.lambdas[i], lambdas[i])
		}
	}
	return nil
}

// AddSelection records selection bootstrap k as completed with the given
// per-(λ, coefficient) support indicators (length Q·P, flattened j·P+i).
func (s *State) AddSelection(k int, support []bool) {
	s.checkK(k, s.meta.B1, "selection")
	if len(support) != s.meta.Q*s.meta.P {
		panic(fmt.Sprintf("checkpoint: selection cell %d has %d indicators, want %d", k, len(support), s.meta.Q*s.meta.P))
	}
	cp := append([]bool(nil), support...)
	s.mu.Lock()
	s.sel[k] = selCell{support: cp}
	s.mu.Unlock()
}

// DropSelection records selection bootstrap k as durably dropped (a
// quorum-mode fault outcome; resume does not retry it, preserving
// bit-identical degraded fits).
func (s *State) DropSelection(k int) {
	s.checkK(k, s.meta.B1, "selection")
	s.mu.Lock()
	s.sel[k] = selCell{dropped: true}
	s.mu.Unlock()
}

// Selection returns the recorded outcome of selection bootstrap k:
// ok reports whether the cell is recorded at all, dropped whether it was a
// durable drop; support is the indicator payload for completed cells (the
// caller must not mutate it).
func (s *State) Selection(k int) (support []bool, dropped, ok bool) {
	s.mu.Lock()
	c, ok := s.sel[k]
	s.mu.Unlock()
	return c.support, c.dropped, ok
}

// AddEstimation records estimation bootstrap k's winning coefficient vector
// (length P; stored bit-exactly).
func (s *State) AddEstimation(k int, beta []float64) {
	s.checkK(k, s.meta.B2, "estimation")
	if len(beta) != s.meta.P {
		panic(fmt.Sprintf("checkpoint: estimation cell %d has %d coefficients, want %d", k, len(beta), s.meta.P))
	}
	cp := append([]float64(nil), beta...)
	s.mu.Lock()
	s.est[k] = estCell{beta: cp}
	s.mu.Unlock()
}

// DropEstimation records estimation bootstrap k as durably dropped.
func (s *State) DropEstimation(k int) {
	s.checkK(k, s.meta.B2, "estimation")
	s.mu.Lock()
	s.est[k] = estCell{dropped: true}
	s.mu.Unlock()
}

// Estimation returns the recorded outcome of estimation bootstrap k (see
// Selection for the ok/dropped semantics).
func (s *State) Estimation(k int) (beta []float64, dropped, ok bool) {
	s.mu.Lock()
	c, ok := s.est[k]
	s.mu.Unlock()
	return c.beta, c.dropped, ok
}

// checkK guards the cell-index invariant the encoder relies on (cells are
// emitted by scanning [0, b), so an out-of-range k would silently vanish).
func (s *State) checkK(k, b int, phase string) {
	if k < 0 || k >= b {
		panic(fmt.Sprintf("checkpoint: %s cell %d outside [0, %d)", phase, k, b))
	}
}

// SelectionRecorded returns how many selection cells are recorded
// (completed + dropped).
func (s *State) SelectionRecorded() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sel)
}

// EstimationRecorded returns how many estimation cells are recorded.
func (s *State) EstimationRecorded() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.est)
}

// Encode serializes the checkpoint to its binary form.
func (s *State) Encode() ([]byte, error) {
	if err := s.meta.validate(); err != nil {
		return nil, err
	}
	if len(s.lambdas) != s.meta.Q {
		return nil, fmt.Errorf("%w: %d λ values with meta q=%d", ErrCorrupt, len(s.lambdas), s.meta.Q)
	}
	metaJSON, err := json.Marshal(&s.meta)
	if err != nil {
		return nil, err
	}
	return format.Encode(metaJSON, s.encodeCells()), nil
}

// encodeCells serializes the λ grid and the recorded cells. Cells are
// written in ascending k order so identical states encode to identical
// bytes regardless of insertion order.
func (s *State) encodeCells() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf []byte
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	u32(uint32(len(s.lambdas)))
	for _, l := range s.lambdas {
		u64(math.Float64bits(l))
	}
	u32(uint32(len(s.sel)))
	for k := 0; k < s.meta.B1; k++ {
		c, ok := s.sel[k]
		if !ok {
			continue
		}
		u32(uint32(k))
		if c.dropped {
			buf = append(buf, cellDropped)
			continue
		}
		buf = append(buf, cellDone)
		buf = append(buf, packBits(c.support)...)
	}
	u32(uint32(len(s.est)))
	for k := 0; k < s.meta.B2; k++ {
		c, ok := s.est[k]
		if !ok {
			continue
		}
		u32(uint32(k))
		if c.dropped {
			buf = append(buf, cellDropped)
			continue
		}
		buf = append(buf, cellDone)
		nnz := 0
		for _, v := range c.beta {
			if v != 0 {
				nnz++
			}
		}
		u64(uint64(nnz))
		for i, v := range c.beta {
			if v != 0 {
				u32(uint32(i))
				u64(math.Float64bits(v))
			}
		}
	}
	return buf
}

// packBits packs a bool slice into a little-endian bitset.
func packBits(bits []bool) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b {
			out[i/8] |= 1 << (i % 8)
		}
	}
	return out
}

// unpackBits expands n bits from a bitset, verifying the padding bits of the
// final byte are zero (a canonical-form check that catches bit rot the CRC
// already makes unlikely).
func unpackBits(data []byte, n int) ([]bool, error) {
	if len(data) != (n+7)/8 {
		return nil, fmt.Errorf("%w: bitset of %d bytes for %d bits", ErrCorrupt, len(data), n)
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = data[i/8]&(1<<(i%8)) != 0
	}
	for i := n; i < 8*len(data); i++ {
		if data[i/8]&(1<<(i%8)) != 0 {
			return nil, fmt.Errorf("%w: nonzero padding bit %d", ErrCorrupt, i)
		}
	}
	return out, nil
}

// decodeCells parses the cells section against an already-validated meta.
func decodeCells(meta *Meta, buf []byte) (*State, error) {
	r := format.Reader(buf, "cells section")
	q, err := r.U32()
	if err != nil {
		return nil, err
	}
	if int(q) != meta.Q {
		return nil, fmt.Errorf("%w: %d λ values with meta q=%d", ErrCorrupt, q, meta.Q)
	}
	lambdas := make([]float64, q)
	for i := range lambdas {
		bits, err := r.U64()
		if err != nil {
			return nil, err
		}
		lambdas[i] = math.Float64frombits(bits)
	}
	st := New(*meta, lambdas)
	nSel, err := r.U32()
	if err != nil {
		return nil, err
	}
	if int64(nSel) > int64(meta.B1) {
		return nil, fmt.Errorf("%w: %d selection cells with b1=%d", ErrCorrupt, nSel, meta.B1)
	}
	supBytes := (meta.Q*meta.P + 7) / 8
	for i := uint32(0); i < nSel; i++ {
		k, err := r.U32()
		if err != nil {
			return nil, err
		}
		if int(k) >= meta.B1 {
			return nil, fmt.Errorf("%w: selection cell %d with b1=%d", ErrCorrupt, k, meta.B1)
		}
		if _, _, ok := st.Selection(int(k)); ok {
			return nil, fmt.Errorf("%w: duplicate selection cell %d", ErrCorrupt, k)
		}
		status, err := r.U8()
		if err != nil {
			return nil, err
		}
		switch status {
		case cellDropped:
			st.DropSelection(int(k))
		case cellDone:
			raw, err := r.Bytes(supBytes)
			if err != nil {
				return nil, err
			}
			sup, err := unpackBits(raw, meta.Q*meta.P)
			if err != nil {
				return nil, err
			}
			st.AddSelection(int(k), sup)
		default:
			return nil, fmt.Errorf("%w: selection cell %d status %d", ErrCorrupt, k, status)
		}
	}
	nEst, err := r.U32()
	if err != nil {
		return nil, err
	}
	if int64(nEst) > int64(meta.B2) {
		return nil, fmt.Errorf("%w: %d estimation cells with b2=%d", ErrCorrupt, nEst, meta.B2)
	}
	for i := uint32(0); i < nEst; i++ {
		k, err := r.U32()
		if err != nil {
			return nil, err
		}
		if int(k) >= meta.B2 {
			return nil, fmt.Errorf("%w: estimation cell %d with b2=%d", ErrCorrupt, k, meta.B2)
		}
		if _, _, ok := st.Estimation(int(k)); ok {
			return nil, fmt.Errorf("%w: duplicate estimation cell %d", ErrCorrupt, k)
		}
		status, err := r.U8()
		if err != nil {
			return nil, err
		}
		switch status {
		case cellDropped:
			st.DropEstimation(int(k))
		case cellDone:
			nnz, err := r.U64()
			if err != nil {
				return nil, err
			}
			if nnz > uint64(r.Remaining())/12 || nnz > uint64(meta.P) {
				return nil, fmt.Errorf("%w: estimation cell %d claims %d nonzeros", ErrCorrupt, k, nnz)
			}
			beta := make([]float64, meta.P)
			for j := uint64(0); j < nnz; j++ {
				idx, err := r.U32()
				if err != nil {
					return nil, err
				}
				bits, err := r.U64()
				if err != nil {
					return nil, err
				}
				if int(idx) >= meta.P {
					return nil, fmt.Errorf("%w: estimation cell %d index %d outside %d", ErrCorrupt, k, idx, meta.P)
				}
				beta[idx] = math.Float64frombits(bits)
			}
			st.AddEstimation(int(k), beta)
		default:
			return nil, fmt.Errorf("%w: estimation cell %d status %d", ErrCorrupt, k, status)
		}
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after cells", ErrCorrupt, r.Remaining())
	}
	return st, nil
}

// Decode parses a checkpoint from its binary form. Damage returns
// ErrCorrupt; a future format or schema returns ErrSchema; Decode never
// panics.
func Decode(data []byte) (*State, error) {
	sections, err := format.Decode(data, 2)
	if err != nil {
		return nil, err
	}
	metaJSON, cells := sections[0], sections[1]
	var meta Meta
	if err := json.Unmarshal(metaJSON, &meta); err != nil {
		return nil, fmt.Errorf("%w: meta section: %v", ErrCorrupt, err)
	}
	if err := meta.validate(); err != nil {
		return nil, err
	}
	return decodeCells(&meta, cells)
}

// Save writes the checkpoint to path atomically (temp file + fsync +
// rename): a crash mid-write leaves the previous checkpoint intact, never a
// half-written file — the ordering guarantee resume correctness rests on.
func Save(path string, s *State) error { return envelope.Save(path, ".uoickpt-*", s) }

// Load reads and fully validates a checkpoint from path. A missing file
// surfaces as the fs error (errors.Is(err, fs.ErrNotExist)); damage and
// schema problems surface as ErrCorrupt / ErrSchema.
func Load(path string) (*State, error) { return envelope.Load(path, Decode) }

// Hasher accumulates the fit fingerprint stored in Meta.Fingerprint: an
// FNV-1a chain over the fit's configuration scalars and every data value.
// Two fits hash equal only if they would compute identical cells.
type Hasher struct {
	h uint64
}

// NewHasher returns a Hasher at the FNV-1a offset basis.
func NewHasher() *Hasher { return &Hasher{h: 14695981039346656037} }

// AddUint64 mixes one 64-bit value byte by byte.
func (h *Hasher) AddUint64(v uint64) {
	for i := 0; i < 8; i++ {
		h.h ^= v & 0xff
		h.h *= 1099511628211
		v >>= 8
	}
}

// AddFloat mixes one float64 by its exact bit pattern.
func (h *Hasher) AddFloat(v float64) { h.AddUint64(math.Float64bits(v)) }

// AddFloats mixes a slice of float64 values (length first, then each bit
// pattern).
func (h *Hasher) AddFloats(xs []float64) {
	h.AddUint64(uint64(len(xs)))
	for _, v := range xs {
		h.AddFloat(v)
	}
}

// Sum returns the accumulated fingerprint.
func (h *Hasher) Sum() uint64 { return h.h }
