//go:build !amd64

package tensor

// axpy computes dst += alpha * src; off amd64 it is the portable loop.
func axpy(dst, src []float32, alpha float32) { axpyGeneric(dst, src, alpha) }
