package bounds

import "math"

// This file holds the paper's bound formulas for the non-array topologies:
// the hypercube and butterfly of §4.5, the k-dimensional array of §5.2, and
// the torus of §6.

// --- Hypercube (dimension d, Bernoulli(p) destination distribution) ---

// CubeMeanDist returns the mean route length d·p on the d-cube when each
// destination bit differs with probability p.
func CubeMeanDist(d int, p float64) float64 { return float64(d) * p }

// CubeEdgeRate returns the arrival rate λ·p carried by every directed cube
// edge (all edges are symmetric).
func CubeEdgeRate(lambda, p float64) float64 { return lambda * p }

// CubeStabilityLimit returns the largest stable per-node arrival rate, 1/p.
func CubeStabilityLimit(p float64) float64 { return 1 / p }

// CubeUpperBoundT returns the Theorem 7 analogue for the cube:
// T ≤ d·p/(1 - λp).
func CubeUpperBoundT(d int, p, lambda float64) float64 {
	u := lambda * p
	if u >= 1 {
		return math.Inf(1)
	}
	if lambda == 0 {
		return CubeMeanDist(d, p)
	}
	return float64(d) * mm1Number(u) / lambda
}

// CubeMD1ApproxT returns the §4.2 independence approximation for the cube:
// T ≈ d·N_MD1(λp)/λ.
func CubeMD1ApproxT(d int, p, lambda float64) float64 {
	if lambda == 0 {
		return CubeMeanDist(d, p)
	}
	return float64(d) * md1Number(lambda*p) / lambda
}

// CubeDBar returns the cube's maximum expected remaining distance
// d̄ = 1 + p(d-1), achieved by a packet queued to cross the first dimension.
func CubeDBar(d int, p float64) float64 { return 1 + p*float64(d-1) }

// CubeThm10LowerBound returns T ≥ T_md1/d (Theorem 10; d services max).
func CubeThm10LowerBound(d int, p, lambda float64) float64 {
	return CubeMD1ApproxT(d, p, lambda) / float64(d)
}

// CubeThm12LowerBound returns T ≥ T_md1/d̄ (Theorem 12, Markovian).
func CubeThm12LowerBound(d int, p, lambda float64) float64 {
	return CubeMD1ApproxT(d, p, lambda) / CubeDBar(d, p)
}

// CubeGapLimit returns the paper's improved limiting upper/lower ratio as
// ρ→1: 2(dp + 1 - p), which is below the Stamoulis–Tsitsiklis factor 2d for
// all p in (0,1), approaches 2 as p → 0, and equals d+1 at p = 1/2.
func CubeGapLimit(d int, p float64) float64 { return 2 * (float64(d)*p + 1 - p) }

// CubeSTGapLimit returns the previous (Stamoulis–Tsitsiklis) limiting
// ratio, 2d, for comparison.
func CubeSTGapLimit(d int) float64 { return 2 * float64(d) }

// --- Butterfly (d levels) ---

// ButterflyEdgeRate returns λ/2, carried by every butterfly edge; all
// queues saturate together, which is why Theorem 14 cannot improve on
// Theorem 10 here.
func ButterflyEdgeRate(lambda float64) float64 { return lambda / 2 }

// ButterflyStabilityLimit returns 2, the largest stable per-input rate.
func ButterflyStabilityLimit() float64 { return 2 }

// ButterflyUpperBoundT returns T ≤ 2d/(2-λ) (Jackson form).
func ButterflyUpperBoundT(d int, lambda float64) float64 {
	u := lambda / 2
	if u >= 1 {
		return math.Inf(1)
	}
	if lambda == 0 {
		return float64(d)
	}
	return 2 * float64(d) * mm1Number(u) / lambda
}

// ButterflyMD1ApproxT returns T ≈ 2d·N_MD1(λ/2)/λ.
func ButterflyMD1ApproxT(d int, lambda float64) float64 {
	if lambda == 0 {
		return float64(d)
	}
	return 2 * float64(d) * md1Number(lambda/2) / lambda
}

// ButterflyThm10LowerBound returns T ≥ T_md1/d; with Lemma 9 this puts the
// lower bound within 2d of the upper bound, matching Stamoulis–Tsitsiklis.
func ButterflyThm10LowerBound(d int, lambda float64) float64 {
	return ButterflyMD1ApproxT(d, lambda) / float64(d)
}

// ButterflyGapLimit returns 2d.
func ButterflyGapLimit(d int) float64 { return 2 * float64(d) }

// --- k-dimensional array (§5.2), side n per dimension ---

// KDMeanDist returns k·(n²-1)/(3n), the k-dimensional n̄.
func KDMeanDist(k, n int) float64 {
	nn := float64(n)
	return float64(k) * (nn*nn - 1) / (3 * nn)
}

// kdSumOverRates evaluates (2k/(λn))·Σ_{i=1}^{n-1} f(r_i): the k-dimensional
// array has 2k·n^{k-1} edges of each rate index and Λ = λn^k.
func kdSumOverRates(k, n int, lambda float64, f func(float64) float64) float64 {
	if lambda == 0 {
		return KDMeanDist(k, n)
	}
	total := 0.0
	for i := 1; i < n; i++ {
		total += f(lambda * float64(i*(n-i)) / float64(n))
	}
	return 2 * float64(k) / (lambda * float64(n)) * total
}

// KDUpperBoundT returns the Theorem 7 analogue for the k-dimensional array.
func KDUpperBoundT(k, n int, lambda float64) float64 {
	return kdSumOverRates(k, n, lambda, mm1Number)
}

// KDMD1ApproxT returns the §4.2 approximation for the k-dimensional array.
func KDMD1ApproxT(k, n int, lambda float64) float64 {
	return kdSumOverRates(k, n, lambda, md1Number)
}

// KDDBar returns the k-dimensional maximum expected remaining distance,
// achieved by a corner packet queued on its first dimension: n/2 expected
// hops remain in that dimension (destination coordinate uniform over the
// other n-1 positions plus the current hop), and each of the k-1 later
// dimensions contributes (n-1)/2 (destination uniform over the full axis,
// current coordinate at the corner). So d̄ = n/2 + (k-1)(n-1)/2, which
// reduces to the paper's n - 1/2 at k = 2.
func KDDBar(k, n int) float64 {
	return float64(n)/2 + float64(k-1)*float64(n-1)/2
}

// KDThm12LowerBound returns T ≥ T_md1/d̄ for the k-dimensional array.
func KDThm12LowerBound(k, n int, lambda float64) float64 {
	return KDMD1ApproxT(k, n, lambda) / KDDBar(k, n)
}

// --- 2-D torus (§6) ---

// TorusMeanDist returns the torus mean route length: n/2 for even n,
// (n²-1)/(2n) for odd n (two axes of E[min ring distance]).
func TorusMeanDist(n int) float64 {
	if n%2 == 0 {
		return float64(n) / 2
	}
	nn := float64(n)
	return (nn*nn - 1) / (2 * nn)
}

// TorusPlusRate returns the arrival rate on every plus-direction (right or
// down) edge under shortest-way greedy routing with ties broken toward
// plus: λ(n+2)/8 for even n, λ(n²-1)/(8n) for odd n.
func TorusPlusRate(n int, lambda float64) float64 {
	if n%2 == 0 {
		return lambda * float64(n+2) / 8
	}
	nn := float64(n)
	return lambda * (nn*nn - 1) / (8 * nn)
}

// TorusMinusRate returns the arrival rate on every minus-direction edge:
// λ(n-2)/8 for even n (ties never go minus), equal to TorusPlusRate for
// odd n (no ties).
func TorusMinusRate(n int, lambda float64) float64 {
	if n%2 == 0 {
		return lambda * float64(n-2) / 8
	}
	return TorusPlusRate(n, lambda)
}

// TorusStabilityLimit returns the largest stable per-node rate:
// 8/(n+2) for even n, 8n/(n²-1) for odd n — roughly twice the array's.
func TorusStabilityLimit(n int) float64 {
	if n%2 == 0 {
		return 8 / float64(n+2)
	}
	nn := float64(n)
	return 8 * nn / (nn*nn - 1)
}

// TorusMD1ApproxT returns the §4.2 approximation for the torus:
// T ≈ 2(N_MD1(r₊) + N_MD1(r₋))/λ. There is no Theorem 7 upper bound — the
// torus cannot be layered and its greedy routing is not Markovian, which is
// exactly the paper's open problem.
func TorusMD1ApproxT(n int, lambda float64) float64 {
	if lambda == 0 {
		return TorusMeanDist(n)
	}
	rp := TorusPlusRate(n, lambda)
	rm := TorusMinusRate(n, lambda)
	return 2 * (md1Number(rp) + md1Number(rm)) / lambda
}

// TorusMaxRouteLen returns d = 2⌊n/2⌋ for Theorem 10.
func TorusMaxRouteLen(n int) int { return 2 * (n / 2) }

// TorusThm10LowerBound returns T ≥ T_md1/d; Theorem 12 does not apply on
// the torus (non-Markovian routing), Theorem 10 does.
func TorusThm10LowerBound(n int, lambda float64) float64 {
	return TorusMD1ApproxT(n, lambda) / float64(TorusMaxRouteLen(n))
}
