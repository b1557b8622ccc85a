package sketch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// This file defines the counter plane: the storage layer under every
// table-based sketch. The table owns the hashing and the algorithms
// own the recovery rule; the plane owns only where the d×s counters
// live and how they are read, added to, merged, and serialized. Two
// implementations exist — dense (densePlane below, the flat
// [][]float64 the repository always had) and compressed (plane_cb,
// Counter Braids from internal/counterbraids).

// BackendKind selects a counter-plane storage backend.
type BackendKind uint8

const (
	// BackendDense is the flat [][]float64 layout: direct-write rows,
	// bit-identical to the pre-plane implementation and allocation-free
	// on the //sketch:hotpath paths. The default.
	BackendDense BackendKind = iota
	// BackendCompressed stores the counters in a Counter Braids
	// structure: a fraction of the bits, in exchange for insert-only
	// non-negative integer updates and whole-plane decode at query
	// time (exact below the braid's decoding threshold).
	BackendCompressed
)

// String names the backend for error messages and descriptors.
func (k BackendKind) String() string {
	switch k {
	case BackendDense:
		return "dense"
	case BackendCompressed:
		return "compressed"
	default:
		return fmt.Sprintf("backend(%d)", uint8(k))
	}
}

// Typed plane and backend errors. Constructors and plane operations
// wrap these so callers can errors.Is against the constraint they hit.
var (
	// ErrConfig wraps every invalid-configuration error a sketch
	// constructor returns.
	ErrConfig = errors.New("sketch: invalid configuration")
	// ErrBackendUnsupported is returned when an algorithm cannot run on
	// the requested backend (e.g. conservative update or signed updates
	// on the insert-only compressed plane).
	ErrBackendUnsupported = errors.New("sketch: backend not supported by this algorithm")
	// ErrBackendState is returned when restored state bytes are
	// unusable: wrong length, or not produced by a matching marshal.
	ErrBackendState = errors.New("sketch: bad backend state")
	// ErrInsertOnly is returned when an update violates the compressed
	// plane's Counter Braids constraint: deltas must be non-negative
	// integers.
	ErrInsertOnly = errors.New("sketch: compressed plane is insert-only (non-negative integer deltas)")
	// ErrPlaneDecode is returned when the compressed plane cannot
	// reconstruct its counters — the braid was loaded beyond its
	// decoding threshold (wraps counterbraids.ErrNoConverge).
	ErrPlaneDecode = errors.New("sketch: compressed plane decode failed")
)

// Plane is the storage backend of a table: the d×s counter matrix
// behind row-addressed read, add, merge, and serialization primitives.
// Implementations are not safe for concurrent use; the table layers
// its own discipline (quiescent reads, single writer) on top, exactly
// as it always did for the dense cells.
type Plane interface {
	// Kind identifies the backend.
	Kind() BackendKind
	// View returns the counter matrix as per-row slices. The dense
	// plane returns a fixed view; the compressed plane decodes on
	// demand (cached until the next Add) and fails with ErrPlaneDecode
	// past the braid's threshold. Callers must not modify the rows
	// unless WritableRows returns the same slices.
	View() ([][]float64, error)
	// WritableRows returns the rows for direct in-place mutation, or
	// nil when the backend cannot be written through raw slices (the
	// hot paths branch on this once and fall back to Add).
	WritableRows() [][]float64
	// ValidateAdd reports whether delta is addable on this backend,
	// without touching state — batch paths call it for the whole batch
	// before any counter moves.
	ValidateAdd(delta float64) error
	// Add applies cells[t][b] += delta.
	Add(t, b int, delta float64) error
	// MergeFrom adds o's counters into the receiver. Shapes are the
	// caller's contract (table.sameShape); backends may mix wherever
	// the values admit it.
	MergeFrom(o Plane) error
	// MarshalCells serializes the counter matrix in the wire cell
	// layout: 8 bytes per cell, little endian, row-major. All backends
	// emit this same layout, so checkpoints interoperate.
	MarshalCells() ([]byte, error)
	// UnmarshalCells overwrites the counters from MarshalCells output.
	UnmarshalCells(b []byte) error
	// Bits returns the resident storage cost of the counters in bits.
	Bits() int
}

// densePlane is the default backend: the flat [][]float64 layout the
// repository always had, unchanged down to the allocation pattern.
type densePlane struct {
	rows  int
	cells [][]float64
}

func newDensePlane(depth, rows int) *densePlane {
	cells := make([][]float64, depth)
	for t := range cells {
		cells[t] = make([]float64, rows)
	}
	return &densePlane{rows: rows, cells: cells}
}

func (p *densePlane) Kind() BackendKind          { return BackendDense }
func (p *densePlane) View() ([][]float64, error) { return p.cells, nil }
func (p *densePlane) WritableRows() [][]float64  { return p.cells }
func (p *densePlane) ValidateAdd(float64) error  { return nil }
func (p *densePlane) Bits() int                  { return 64 * len(p.cells) * p.rows }

func (p *densePlane) Add(t, b int, delta float64) error {
	p.cells[t][b] += delta
	return nil
}

// MergeFrom adds any readable plane's counters cell by cell; merging
// dense←dense is the pre-plane mergeFrom, and dense←compressed decodes
// the braid once and folds it in.
func (p *densePlane) MergeFrom(o Plane) error {
	ov, err := o.View()
	if err != nil {
		return err
	}
	for t := range p.cells {
		row, orow := p.cells[t], ov[t]
		for b := range row {
			row[b] += orow[b]
		}
	}
	return nil
}

func (p *densePlane) MarshalCells() ([]byte, error) {
	return marshalRows(p.cells, p.rows), nil
}

func (p *densePlane) UnmarshalCells(buf []byte) error {
	if err := checkCellPayload(buf, len(p.cells), p.rows); err != nil {
		return err
	}
	off := 0
	for t := range p.cells {
		for b := range p.cells[t] {
			p.cells[t][b] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
	}
	return nil
}

// marshalRows serializes per-row counters in the wire cell layout —
// shared by every backend so their checkpoints are interchangeable.
func marshalRows(cells [][]float64, rows int) []byte {
	buf := make([]byte, 8*len(cells)*rows)
	off := 0
	for t := range cells {
		for _, v := range cells[t] {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
			off += 8
		}
	}
	return buf
}

// checkCellPayload validates the byte length of a cell payload.
func checkCellPayload(buf []byte, depth, rows int) error {
	if want := 8 * depth * rows; len(buf) != want {
		return fmt.Errorf("sketch: cell payload %d bytes, want %d", len(buf), want)
	}
	return nil
}
