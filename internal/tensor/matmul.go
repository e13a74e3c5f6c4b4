package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// parallelThreshold is the minimum number of result rows per goroutine; below
// this the goroutine fan-out overhead dominates.
const parallelThreshold = 16

// MatMul returns a × b, or an ErrShape error when a.cols != b.rows; use
// MustMatMul in contexts where shapes are known correct.
//
// The implementation is an i-k-j loop order (streaming over b's rows) which
// is cache-friendly for row-major storage, optionally fanned out over rows
// when parallel workers are configured via SetWorkers.
func MatMul(a, b *Matrix) (*Matrix, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("%w: matmul %dx%d × %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := New(a.rows, b.cols)
	parallelRows(matMulRows, out, a, b, workerCount())
	return out, nil
}

// MustMatMul is MatMul for statically known-compatible shapes; it panics on
// mismatch. Used internally where shapes are guaranteed by construction.
func MustMatMul(a, b *Matrix) *Matrix {
	out, err := MatMul(a, b)
	if err != nil {
		panic(err)
	}
	return out
}

// MatMulSerial multiplies using exactly one goroutine regardless of the
// configured worker count. Device emulation uses it so that each simulated
// edge device has single-CPU compute as in the paper's testbed.
func MatMulSerial(a, b *Matrix) (*Matrix, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("%w: matmul %dx%d × %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := New(a.rows, b.cols)
	matMulRows(out, a, b, 0, a.rows)
	return out, nil
}

var (
	workersMu sync.RWMutex
	workers   = runtime.GOMAXPROCS(0)
)

// SetWorkers sets the goroutine fan-out used by MatMul. n < 1 resets to
// GOMAXPROCS. It returns the previous value.
func SetWorkers(n int) int {
	workersMu.Lock()
	defer workersMu.Unlock()
	prev := workers
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	workers = n
	return prev
}

func workerCount() int {
	workersMu.RLock()
	defer workersMu.RUnlock()
	return workers
}

// parallelRows computes out's rows with kernel, split into contiguous chunks
// of at least parallelThreshold rows, one goroutine per chunk, and returns
// when all are done. With one worker or too few rows it runs inline.
func parallelRows(kernel func(out, a, b *Matrix, rowStart, rowEnd int), out, a, b *Matrix, nworkers int) {
	rows := a.rows
	if nworkers <= 1 || rows < 2*parallelThreshold {
		kernel(out, a, b, 0, rows)
		return
	}
	chunk := (rows + nworkers - 1) / nworkers
	if chunk < parallelThreshold {
		chunk = parallelThreshold
	}
	var wg sync.WaitGroup
	for start := 0; start < rows; start += chunk {
		end := min(start+chunk, rows)
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			kernel(out, a, b, s, e)
		}(start, end)
	}
	wg.Wait()
}

// matMulRows computes rows [rowStart,rowEnd) of out = a×b using the ikj loop
// order: for each a[i][k] it streams b's k-th row into out's i-th row.
func matMulRows(out, a, b *Matrix, rowStart, rowEnd int) {
	n := b.cols
	for i := rowStart; i < rowEnd; i++ {
		ai := a.data[i*a.cols : (i+1)*a.cols]
		oi := out.data[i*n : (i+1)*n]
		for k, av := range ai {
			if av == 0 {
				continue
			}
			bk := b.data[k*n : (k+1)*n]
			axpy(oi, bk, av)
		}
	}
}

// axpyGeneric computes dst += alpha * src with 4-way unrolling. It is the
// portable implementation of axpy and the reference its amd64 kernel must
// match bit for bit.
func axpyGeneric(dst, src []float32, alpha float32) {
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += alpha * src[i]
		dst[i+1] += alpha * src[i+1]
		dst[i+2] += alpha * src[i+2]
		dst[i+3] += alpha * src[i+3]
	}
	for ; i < n; i++ {
		dst[i] += alpha * src[i]
	}
}

// MatMulT returns a × bᵀ without materializing the transpose. This is the
// natural shape for attention scores Q·Kᵀ.
func MatMulT(a, bT *Matrix) (*Matrix, error) {
	if a.cols != bT.cols {
		return nil, fmt.Errorf("%w: matmulT %dx%d × (%dx%d)ᵀ", ErrShape, a.rows, a.cols, bT.rows, bT.cols)
	}
	out := New(a.rows, bT.rows)
	parallelRows(matMulTRows, out, a, bT, workerCount())
	return out, nil
}

func matMulTRows(out, a, bT *Matrix, rowStart, rowEnd int) {
	k := a.cols
	for i := rowStart; i < rowEnd; i++ {
		ai := a.data[i*k : (i+1)*k]
		oi := out.data[i*bT.rows : (i+1)*bT.rows]
		for j := 0; j < bT.rows; j++ {
			bj := bT.data[j*k : (j+1)*k]
			oi[j] = dot(ai, bj)
		}
	}
}

// dot computes the inner product of equally sized slices with 4-way
// unrolling.
func dot(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}
