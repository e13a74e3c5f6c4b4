// Package tensor implements the dense linear-algebra substrate used by the
// Voltage distributed inference engine.
//
// The package provides a row-major float32 matrix type with the operations a
// transformer forward pass needs: matrix multiplication (i-k-j loop order,
// optionally parallel over rows), transposition, row-wise softmax, layer
// normalization, activation functions, concatenation and position (row)
// slicing. Everything is implemented from scratch on the standard library so
// the repository has no external dependencies; the one assembly kernel, an
// SSE2 axpy on amd64, is bit-identical to the portable Go loop it replaces.
//
// All operations either return new matrices or write into a caller-supplied
// destination; input matrices are never mutated unless the method name makes
// it explicit (e.g. AddInPlace).
package tensor

import (
	"errors"
	"fmt"
	"math"
)

// ErrShape is returned (wrapped) whenever the shapes of the operands of an
// operation are incompatible.
var ErrShape = errors.New("tensor: shape mismatch")

// Matrix is a dense, row-major matrix of float32 values.
//
// The zero value is an empty 0×0 matrix. Matrices are created with New,
// NewFromData or the random constructors in random.go.
type Matrix struct {
	rows, cols int
	data       []float32
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float32, rows*cols)}
}

// NewFromData wraps data as a rows×cols matrix. The slice is used directly
// (not copied); callers that need isolation should pass a fresh slice.
func NewFromData(rows, cols int, data []float32) (*Matrix, error) {
	if len(data) != rows*cols {
		return nil, fmt.Errorf("%w: data length %d != %d*%d", ErrShape, len(data), rows, cols)
	}
	return &Matrix{rows: rows, cols: cols, data: data}, nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Size returns the number of elements (rows*cols).
func (m *Matrix) Size() int { return m.rows * m.cols }

// Data returns the underlying row-major backing slice. Mutating it mutates
// the matrix; it is exposed for codecs and hot loops.
func (m *Matrix) Data() []float32 { return m.data }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float32 { return m.data[i*m.cols+j] }

// Set assigns v to the element at row i, column j.
func (m *Matrix) Set(i, j int, v float32) { m.data[i*m.cols+j] = v }

// Row returns the i-th row as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float32 { return m.data[i*m.cols : (i+1)*m.cols] }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// RowSlice returns a deep copy of rows [from, to) as a new (to-from)×cols
// matrix. It corresponds to selecting an input partition x_p for a position
// range in the paper.
func (m *Matrix) RowSlice(from, to int) (*Matrix, error) {
	if from < 0 || to > m.rows || from > to {
		return nil, fmt.Errorf("%w: row slice [%d,%d) of %d rows", ErrShape, from, to, m.rows)
	}
	out := New(to-from, m.cols)
	copy(out.data, m.data[from*m.cols:to*m.cols])
	return out, nil
}

// SetRowSlice copies src into rows [from, from+src.rows) of m. It is the
// inverse of RowSlice and is used to assemble All-Gather results.
func (m *Matrix) SetRowSlice(from int, src *Matrix) error {
	if src.cols != m.cols || from < 0 || from+src.rows > m.rows {
		return fmt.Errorf("%w: set rows [%d,%d) cols %d into %dx%d",
			ErrShape, from, from+src.rows, src.cols, m.rows, m.cols)
	}
	copy(m.data[from*m.cols:], src.data)
	return nil
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	out := New(m.cols, m.rows)
	const block = 32
	for i0 := 0; i0 < m.rows; i0 += block {
		iMax := min(i0+block, m.rows)
		for j0 := 0; j0 < m.cols; j0 += block {
			jMax := min(j0+block, m.cols)
			for i := i0; i < iMax; i++ {
				row := m.data[i*m.cols:]
				for j := j0; j < jMax; j++ {
					out.data[j*m.rows+i] = row[j]
				}
			}
		}
	}
	return out
}

// Equal reports whether m and other have identical shape and elements.
func (m *Matrix) Equal(other *Matrix) bool {
	if m.rows != other.rows || m.cols != other.cols {
		return false
	}
	for i, v := range m.data {
		if v != other.data[i] {
			return false
		}
	}
	return true
}

// AlmostEqual reports whether m and other have the same shape and all
// elements within tol of each other (absolute or relative, whichever is
// looser). NaNs never compare equal.
func (m *Matrix) AlmostEqual(other *Matrix, tol float64) bool {
	if m.rows != other.rows || m.cols != other.cols {
		return false
	}
	for i, v := range m.data {
		a, b := float64(v), float64(other.data[i])
		diff := math.Abs(a - b)
		if diff <= tol {
			continue
		}
		scale := math.Max(math.Abs(a), math.Abs(b))
		if diff > tol*scale {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the maximum absolute element-wise difference between m
// and other, or an error if shapes differ.
func (m *Matrix) MaxAbsDiff(other *Matrix) (float64, error) {
	if m.rows != other.rows || m.cols != other.cols {
		return 0, fmt.Errorf("%w: %dx%d vs %dx%d", ErrShape, m.rows, m.cols, other.rows, other.cols)
	}
	var maxd float64
	for i, v := range m.data {
		d := math.Abs(float64(v) - float64(other.data[i]))
		if d > maxd {
			maxd = d
		}
	}
	return maxd, nil
}

// String renders small matrices fully and large ones as a shape summary.
func (m *Matrix) String() string {
	if m.Size() > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.rows, m.cols)
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
