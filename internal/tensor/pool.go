package tensor

import "sync"

// MatrixPool recycles matrix storage for the distributed runtime's per-layer
// hot path: decoded activations and All-Gather assemblies are the same shape
// every layer of every request, so steady-state serving can stop allocating
// N×F backing arrays entirely.
//
// Storage is keyed by element count, not shape, so an N×F buffer freed by
// one request can back an F×N (or any same-size) matrix of the next. The
// zero value is ready to use; a nil *MatrixPool degrades to plain
// allocation, which is how poolless callers (Decode, comm's one-shot
// collectives) use the pooled code paths.
//
// Contract: Get returns a matrix with UNSPECIFIED contents (stale values
// from a previous user are expected) — callers must fully overwrite it.
// Put transfers ownership to the pool: the caller must not retain any
// reference to the matrix or aliases of its storage.
type MatrixPool struct {
	mu    sync.Mutex
	pools map[int]*sync.Pool // element count -> pool of *Matrix
}

// pool returns the sync.Pool for element count n, creating it on first use.
// A plain int-keyed map under a mutex (rather than sync.Map) keeps the
// steady-state Get/Put cycle allocation-free: sync.Map would box the int
// key on every lookup.
func (p *MatrixPool) pool(n int) *sync.Pool {
	p.mu.Lock()
	sp := p.pools[n]
	if sp == nil {
		if p.pools == nil {
			p.pools = make(map[int]*sync.Pool)
		}
		sp = new(sync.Pool)
		p.pools[n] = sp
	}
	p.mu.Unlock()
	return sp
}

// Get returns a rows×cols matrix whose contents are unspecified. The caller
// must overwrite every element before reading any.
//
// The Matrix header is recycled along with its storage (no per-Get boxing),
// so a steady-state Get/Put cycle is allocation-free.
func (p *MatrixPool) Get(rows, cols int) *Matrix {
	n := rows * cols
	if p == nil || n <= 0 {
		return New(rows, cols)
	}
	if m, ok := p.pool(n).Get().(*Matrix); ok {
		m.rows, m.cols = rows, cols
		return m
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float32, n)}
}

// Put recycles m. m must not be used (nor any alias of its backing array)
// after the call: both the header and the storage go back to the pool. Nil
// pools and empty matrices are no-ops.
func (p *MatrixPool) Put(m *Matrix) {
	if p == nil || m == nil || len(m.data) == 0 {
		return
	}
	p.pool(len(m.data)).Put(m)
}
