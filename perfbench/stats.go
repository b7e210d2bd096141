package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"slices"
	"time"
)

// rank returns the 1-based nearest-rank index of the pct-th percentile of
// n sorted samples: the smallest r with r/n >= pct/100. Integer arithmetic
// keeps it exact (0.9*100 is not 90 in floating point).
func rank(n, pct int) int {
	return max(1, (pct*n+99)/100)
}

// percentile returns the nearest-rank pct-th percentile of xs (NaN when xs
// is empty). xs is not modified.
func percentile(xs []float64, pct int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank(len(s), pct)-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// beyond is how many of n samples lie above the nearest-rank pct-th
// percentile.
func beyond(n, pct int) int { return n - rank(n, pct) }

// minSamples is the smallest sample count that leaves at least k samples
// above the pct-th percentile, so that the percentile is backed by k tail
// observations.
func minSamples(pct, k int) int {
	n := 1
	for beyond(n, pct) < k {
		n++
	}
	return n
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tally counts operations and their failures. Every failed call, SSE error
// frame and failed correctness check is one failure; the benchmark's
// error fraction is failed/attempted.
type tally struct {
	attempted, failed int
	failures          []string
}

// check counts one checked operation and records a failure when ok is
// false. It returns ok.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted++
	if !ok {
		t.fail(format, args...)
	}
	return ok
}

// fail records a failure of an operation already counted as attempted.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 20 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

func (t *tally) errorFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// digest accumulates the determinism digest of a run: the exact bits of
// the results it covers, in order.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) float(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digest) bytes(b []byte) {
	d.u64(uint64(len(b)))
	d.h.Write(b)
}

// point adds one sweep point: the Float64bits of its mean delay, CI and
// mean N, then its replica count.
func (d *digest) point(meanDelay, ci, meanN float64, replicas int) {
	d.float(meanDelay)
	d.float(ci)
	d.float(meanN)
	d.u64(uint64(replicas))
}

func (d *digest) hex() string { return hex.EncodeToString(d.h.Sum(nil)) }

// splitmix64 derives the benchmark's input seeds from --seed: input k of a
// run is splitmix64(seed ^ k·φ), so the same seed always yields the same
// inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func inputSeed(seed uint64, k int) uint64 {
	return splitmix64(seed ^ uint64(k)*0x9e3779b97f4a7c15)
}
