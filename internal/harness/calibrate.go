package harness

import (
	"runtime"
	"time"

	"voltage/internal/costmodel"
	"voltage/internal/netem"
	"voltage/internal/tensor"
)

// The paper's figures depend on the *ratio* of device compute speed to
// network bandwidth: its VMs sustained tens of GFLOP/s (MKL-backed
// PyTorch) against 200–1000 Mbps links. This repository's kernels are
// several times slower: MeasureDeviceFlops reads 5.4–6.4 GMAC/s on one core
// of a shared 2-vCPU Xeon host (amd64, SSE2 axpy), against the paper's
// ≈25 GMAC/s. Running measured experiments at the paper's literal
// bandwidths would make communication look cheaper than it was and tilt
// the comparison toward tensor parallelism's perfect compute split.
// Calibration rescales the emulated bandwidth by
//
//	measured-kernel-throughput / paper-device-throughput
//
// so one emulated "500 Mbps" buys the same number of per-byte FLOPs as in
// the paper — preserving the compute:communication balance every figure
// shape depends on. See DESIGN.md (substitutions) and EXPERIMENTS.md.

// MeasureDeviceFlops estimates this host's single-threaded sustained
// matmul throughput in multiply-accumulate operations per second — the
// same unit as the paper's Γ(·) and costmodel.DeviceProfile.
func MeasureDeviceFlops() float64 {
	const dim = 192
	rng := tensor.NewRNG(1)
	a := rng.Normal(dim, dim, 1)
	b := rng.Normal(dim, dim, 1)
	// Warm up.
	if _, err := tensor.MatMulSerial(a, b); err != nil {
		return costmodel.EdgeCPU.FlopsPerSec
	}
	const reps = 6
	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := tensor.MatMulSerial(a, b); err != nil {
			return costmodel.EdgeCPU.FlopsPerSec
		}
	}
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		return costmodel.EdgeCPU.FlopsPerSec
	}
	macs := float64(reps) * float64(dim) * float64(dim) * float64(dim)
	return macs / elapsed
}

// BandwidthScale returns the factor that maps paper bandwidths onto this
// host: local kernel throughput divided by the paper's device throughput.
func BandwidthScale(deviceFlops float64) float64 {
	if deviceFlops <= 0 {
		return 1
	}
	return deviceFlops / costmodel.EdgeCPU.FlopsPerSec
}

// CalibratedProfile rescales a paper-scale network profile for measured
// experiments on this host. Latency is kept as-is (it is small relative to
// serialization in every experiment).
func CalibratedProfile(p netem.Profile, deviceFlops float64) netem.Profile {
	scale := BandwidthScale(deviceFlops)
	return netem.Profile{
		BandwidthMbps: p.BandwidthMbps * scale,
		Latency:       p.Latency,
	}
}

// Calibration fixes the emulated device speed and the matching bandwidth
// scale for measured experiments.
type Calibration struct {
	// DeviceFlops is the paced per-device rate (MAC/s). Every emulated
	// device runs at exactly this speed regardless of host load.
	DeviceFlops float64
	// BwScale maps paper bandwidths to emulated ones so bytes-per-FLOP
	// matches the paper's testbed.
	BwScale float64
}

// Zero reports whether the calibration is unset (no pacing, literal
// bandwidths).
func (c Calibration) Zero() bool { return c.DeviceFlops <= 0 }

// Apply rescales a paper-scale profile.
func (c Calibration) Apply(p netem.Profile) netem.Profile {
	if c.Zero() {
		return p
	}
	return netem.Profile{BandwidthMbps: p.BandwidthMbps * c.BwScale, Latency: p.Latency}
}

// Calibrate measures the host and picks a device rate such that maxK paced
// devices fit the available cores with margin — each emulated device then
// genuinely sustains its rate even when the host has fewer cores than
// devices. The bandwidth scale follows so the paper's compute:comm balance
// holds.
func Calibrate(maxK int) Calibration {
	host := MeasureDeviceFlops()
	cores := float64(runtime.NumCPU())
	if maxK < 1 {
		maxK = 1
	}
	d := host * cores / (float64(maxK) * 1.3)
	if d > costmodel.EdgeCPU.FlopsPerSec {
		d = costmodel.EdgeCPU.FlopsPerSec
	}
	return Calibration{DeviceFlops: d, BwScale: BandwidthScale(d)}
}
