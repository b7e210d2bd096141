// Package queueing provides the classical queueing-theory results the paper
// builds on: M/M/1 and M/D/1 queues, the Pollaczek–Khinchin mean-value
// formula for M/G/1, Little's law, product-form (Jackson) network
// evaluation, per-queue utilizations and the bottleneck queue, and the
// Theorem 15 optimal service-rate allocation under a linear cost
// constraint.
//
// Conventions: rates are events per unit time; "number in system" N counts
// customers both waiting and in service; "delay" T is the total time in
// system (waiting plus service). Little's law N = Λ·T links them.
package queueing

import (
	"errors"
	"fmt"
	"math"
)

// ErrUnstable is returned when a queue or network has load ρ >= 1 and
// therefore no equilibrium.
var ErrUnstable = errors.New("queueing: system is unstable (rho >= 1)")

// MM1Number returns the expected number in system of an M/M/1 queue with
// arrival rate lambda and service rate mu: ρ/(1-ρ).
func MM1Number(lambda, mu float64) (float64, error) {
	rho := lambda / mu
	if rho >= 1 {
		return math.Inf(1), ErrUnstable
	}
	if rho < 0 {
		return 0, fmt.Errorf("queueing: negative load %v", rho)
	}
	return rho / (1 - rho), nil
}

// MM1Delay returns the expected time in system of an M/M/1 queue:
// 1/(mu-lambda).
func MM1Delay(lambda, mu float64) (float64, error) {
	if lambda >= mu {
		return math.Inf(1), ErrUnstable
	}
	return 1 / (mu - lambda), nil
}

// MG1Number returns the Pollaczek–Khinchin expected number in system of an
// M/G/1 queue with arrival rate lambda and service time S having the given
// first and second moments:
//
//	N = λE[S] + λ²E[S²] / (2(1 - λE[S])).
func MG1Number(lambda, meanS, meanS2 float64) (float64, error) {
	rho := lambda * meanS
	if rho >= 1 {
		return math.Inf(1), ErrUnstable
	}
	if rho < 0 || meanS2 < meanS*meanS {
		return 0, fmt.Errorf("queueing: invalid M/G/1 parameters (rho=%v, E[S]=%v, E[S²]=%v)", rho, meanS, meanS2)
	}
	return rho + lambda*lambda*meanS2/(2*(1-rho)), nil
}

// MD1Number returns the expected number in system of an M/D/1 queue with
// arrival rate lambda and deterministic service time s (E[S²] = s²).
func MD1Number(lambda, s float64) (float64, error) {
	return MG1Number(lambda, s, s*s)
}

// MD1Delay returns the expected time in system of an M/D/1 queue with
// deterministic service time s: s + λs²/(2(1-λs)).
func MD1Delay(lambda, s float64) (float64, error) {
	n, err := MD1Number(lambda, s)
	if err != nil {
		return math.Inf(1), err
	}
	if lambda == 0 {
		return s, nil
	}
	return n / lambda, nil // Little's law on the single queue
}

// LittleN returns N = Λ·T.
func LittleN(bigLambda, t float64) float64 { return bigLambda * t }

// LittleT returns T = N/Λ.
func LittleT(n, bigLambda float64) float64 {
	if bigLambda == 0 {
		return 0
	}
	return n / bigLambda
}

// JacksonNumber returns the equilibrium expected number of customers in a
// product-form network with per-queue arrival rates lambda and service
// rates phi: Σ λ_j/(φ_j - λ_j). Queues with zero arrival rate contribute
// nothing regardless of their service rate. This is also the expected
// number in the PS-server network of Theorem 5, and therefore the paper's
// upper bound for the FIFO unit-service network when all φ_j = 1.
func JacksonNumber(lambda, phi []float64) (float64, error) {
	if len(lambda) != len(phi) {
		return 0, fmt.Errorf("queueing: rate vectors differ in length: %d vs %d", len(lambda), len(phi))
	}
	total := 0.0
	for j := range lambda {
		if lambda[j] == 0 {
			continue
		}
		if lambda[j] < 0 {
			return 0, fmt.Errorf("queueing: negative arrival rate at queue %d", j)
		}
		if lambda[j] >= phi[j] {
			return math.Inf(1), ErrUnstable
		}
		total += lambda[j] / (phi[j] - lambda[j])
	}
	return total, nil
}

// MD1SystemNumber returns the expected number of customers under the §4.2
// independence approximation: each queue j treated as an independent M/D/1
// queue with arrival rate lambda[j] and deterministic service time
// 1/phi[j].
func MD1SystemNumber(lambda, phi []float64) (float64, error) {
	if len(lambda) != len(phi) {
		return 0, fmt.Errorf("queueing: rate vectors differ in length: %d vs %d", len(lambda), len(phi))
	}
	total := 0.0
	for j := range lambda {
		if lambda[j] == 0 {
			continue
		}
		n, err := MD1Number(lambda[j], 1/phi[j])
		if err != nil {
			return math.Inf(1), err
		}
		total += n
	}
	return total, nil
}

// Load returns the network load ρ = max_j λ_j/φ_j.
func Load(lambda, phi []float64) float64 {
	rho := 0.0
	for j := range lambda {
		if phi[j] > 0 {
			if r := lambda[j] / phi[j]; r > rho {
				rho = r
			}
		}
	}
	return rho
}

// Utilizations converts per-queue arrival rates into utilizations
// ρ_j = λ_j·s_j. svcMean may be nil for unit service everywhere.
// internal/workload applies it to the per-edge rates of a demand's route
// walk and reads stability off the result.
func Utilizations(lambda, svcMean []float64) ([]float64, error) {
	if svcMean != nil && len(svcMean) != len(lambda) {
		return nil, fmt.Errorf("queueing: svcMean has %d entries, want %d", len(svcMean), len(lambda))
	}
	util := make([]float64, len(lambda))
	for j, l := range lambda {
		s := 1.0
		if svcMean != nil {
			s = svcMean[j]
		}
		util[j] = l * s
	}
	return util, nil
}

// Bottleneck returns the index and value of the maximum utilization (the
// saturating queue); index -1 on an empty slice.
func Bottleneck(util []float64) (int, float64) {
	idx, max := -1, 0.0
	for j, u := range util {
		if idx == -1 || u > max {
			idx, max = j, u
		}
	}
	return idx, max
}

// OptimalAllocation computes Theorem 15's service-rate assignment: given
// per-queue arrival rates lambda, per-queue linear costs cost (d_j), and a
// budget D with Σ cost_j·φ_j = D, the allocation minimizing the Jackson
// mean number in system is
//
//	φ_j = λ_j + (√(λ_j d_j)/Σ_k √(λ_k d_k)) · D*/d_j,  D* = D - Σ_k λ_k d_k.
//
// It returns the rates and D*. The system is feasible only when D* > 0.
func OptimalAllocation(lambda, cost []float64, budget float64) (phi []float64, dstar float64, err error) {
	if len(lambda) != len(cost) {
		return nil, 0, fmt.Errorf("queueing: lambda and cost differ in length")
	}
	spent := 0.0
	sqrtSum := 0.0
	for j := range lambda {
		if lambda[j] < 0 || cost[j] <= 0 {
			return nil, 0, fmt.Errorf("queueing: invalid lambda/cost at queue %d", j)
		}
		spent += lambda[j] * cost[j]
		sqrtSum += math.Sqrt(lambda[j] * cost[j])
	}
	dstar = budget - spent
	if dstar <= 0 {
		return nil, dstar, fmt.Errorf("queueing: budget %v cannot stabilize load requiring %v: %w", budget, spent, ErrUnstable)
	}
	phi = make([]float64, len(lambda))
	for j := range lambda {
		phi[j] = lambda[j] + math.Sqrt(lambda[j]*cost[j])/sqrtSum*dstar/cost[j]
	}
	return phi, dstar, nil
}

// OptimalNumber returns Theorem 15's closed-form mean number in system under
// the optimal allocation: (Σ_j √(λ_j d_j))² / D*.
func OptimalNumber(lambda, cost []float64, budget float64) (float64, error) {
	spent := 0.0
	sqrtSum := 0.0
	for j := range lambda {
		spent += lambda[j] * cost[j]
		sqrtSum += math.Sqrt(lambda[j] * cost[j])
	}
	dstar := budget - spent
	if dstar <= 0 {
		return math.Inf(1), ErrUnstable
	}
	return sqrtSum * sqrtSum / dstar, nil
}
