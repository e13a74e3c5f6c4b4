package tensor

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// naiveMatMul is the reference ijk implementation used to validate the
// optimized kernels. It accumulates each output in float32 in k order, the
// order the ikj kernel adds into an output element, so the two agree bit
// for bit.
func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < b.cols; j++ {
			var s float32
			for k := 0; k < a.cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// firstBitMismatch returns the first element where got and want differ in
// their bit patterns, or "" when they are identical.
func firstBitMismatch(got, want *Matrix) string {
	if got.rows != want.rows || got.cols != want.cols {
		return fmt.Sprintf("shape %dx%d, want %dx%d", got.rows, got.cols, want.rows, want.cols)
	}
	for i, g := range got.data {
		if math.Float32bits(g) != math.Float32bits(want.data[i]) {
			return fmt.Sprintf("element %d = %g, want %g", i, g, want.data[i])
		}
	}
	return ""
}

func TestMatMulSmall(t *testing.T) {
	a, _ := NewFromData(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b, _ := NewFromData(3, 2, []float32{7, 8, 9, 10, 11, 12})
	got, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := NewFromData(2, 2, []float32{58, 64, 139, 154})
	if !got.Equal(want) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulShapeError(t *testing.T) {
	if _, err := MatMul(New(2, 3), New(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
	if _, err := MatMulSerial(New(2, 3), New(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
	if _, err := MatMulT(New(2, 3), New(2, 4)); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		m := 1 + rng.Intn(50)
		k := 1 + rng.Intn(50)
		n := 1 + rng.Intn(50)
		a := rng.Normal(m, k, 1)
		b := rng.Normal(k, n, 1)
		want := naiveMatMul(a, b)
		for name, mul := range map[string]func(a, b *Matrix) (*Matrix, error){
			"MatMul": MatMul, "MatMulSerial": MatMulSerial,
		} {
			got, err := mul(a, b)
			if err != nil {
				t.Errorf("%s %dx%dx%d: %v", name, m, k, n, err)
				return false
			}
			if d := firstBitMismatch(got, want); d != "" {
				t.Errorf("%s %dx%dx%d: %s", name, m, k, n, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := NewRNG(42)
	a := rng.Normal(200, 64, 1)
	b := rng.Normal(64, 96, 1)
	prev := SetWorkers(8)
	defer SetWorkers(prev)
	par, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ser, err := MatMulSerial(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !par.Equal(ser) {
		t.Fatal("parallel and serial matmul disagree")
	}
}

func TestMatMulTMatchesExplicitTranspose(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		m := 1 + rng.Intn(40)
		k := 1 + rng.Intn(40)
		n := 1 + rng.Intn(40)
		a := rng.Normal(m, k, 1)
		bT := rng.Normal(n, k, 1)
		got, err := MatMulT(a, bT)
		if err != nil {
			return false
		}
		want, err := MatMul(a, bT.T())
		if err != nil {
			return false
		}
		return got.AlmostEqual(want, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulAssociativity(t *testing.T) {
	// (AB)C == A(BC) numerically within float tolerance. This property is
	// the foundation of the paper's computation-order rewrites.
	rng := NewRNG(3)
	a := rng.Normal(8, 16, 0.5)
	b := rng.Normal(16, 12, 0.5)
	c := rng.Normal(12, 10, 0.5)
	left := MustMatMul(MustMatMul(a, b), c)
	right := MustMatMul(a, MustMatMul(b, c))
	if !left.AlmostEqual(right, 1e-3) {
		d, _ := left.MaxAbsDiff(right)
		t.Fatalf("associativity violated beyond tolerance: max diff %v", d)
	}
}

func TestSetWorkers(t *testing.T) {
	prev := SetWorkers(3)
	if workerCount() != 3 {
		t.Fatalf("workerCount = %d, want 3", workerCount())
	}
	SetWorkers(0) // resets to GOMAXPROCS
	if workerCount() < 1 {
		t.Fatal("workerCount < 1 after reset")
	}
	SetWorkers(prev)
}

func TestMustMatMulPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustMatMul did not panic on shape mismatch")
		}
	}()
	MustMatMul(New(2, 3), New(2, 3))
}

func BenchmarkMatMul128(b *testing.B) {
	rng := NewRNG(1)
	x := rng.Normal(128, 128, 1)
	y := rng.Normal(128, 128, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatMul(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMulSerial128(b *testing.B) {
	rng := NewRNG(1)
	x := rng.Normal(128, 128, 1)
	y := rng.Normal(128, 128, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatMulSerial(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatMulShapes times one serial matmul at the shapes the benchmark
// workloads spend their compute on, and reports GFLOP/s (2·m·k·n per op).
func BenchmarkMatMulShapes(b *testing.B) {
	for _, s := range []struct {
		name    string
		m, k, n int
	}{
		{"lmhead_2x768x50257", 2, 768, 50257},
		{"decode_ffn_2x768x3072", 2, 768, 3072},
		{"prefill_ffn_11x1024x4096", 11, 1024, 4096},
	} {
		b.Run(s.name, func(b *testing.B) {
			prev := SetWorkers(1)
			defer SetWorkers(prev)
			rng := NewRNG(1)
			x := rng.Normal(s.m, s.k, 1)
			y := rng.Normal(s.k, s.n, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := MatMul(x, y); err != nil {
					b.Fatal(err)
				}
			}
			flops := 2 * float64(s.m) * float64(s.k) * float64(s.n) * float64(b.N)
			b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
