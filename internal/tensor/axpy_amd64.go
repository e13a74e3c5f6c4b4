package tensor

// axpy computes dst += alpha * src over min(len(dst), len(src)) elements
// with SSE2 (axpy_amd64.s). It is bit-identical to axpyGeneric: every lane
// rounds the product, then the sum, and never fuses them.
//
//go:noescape
func axpy(dst, src []float32, alpha float32)
