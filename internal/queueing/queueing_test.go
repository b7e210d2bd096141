package queueing

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMM1(t *testing.T) {
	n, err := MM1Number(0.5, 1)
	if err != nil || !almost(n, 1, 1e-12) {
		t.Errorf("MM1Number(0.5,1) = %v, %v", n, err)
	}
	d, err := MM1Delay(0.5, 1)
	if err != nil || !almost(d, 2, 1e-12) {
		t.Errorf("MM1Delay(0.5,1) = %v, %v", d, err)
	}
	if _, err := MM1Number(1, 1); !errors.Is(err, ErrUnstable) {
		t.Error("MM1Number at rho=1 should be unstable")
	}
	if _, err := MM1Delay(2, 1); !errors.Is(err, ErrUnstable) {
		t.Error("MM1Delay at rho=2 should be unstable")
	}
}

func TestMD1(t *testing.T) {
	// M/D/1 at rho=0.5, s=1: N = 0.5 + 0.25/(2*0.5) = 0.75, T = 1.5.
	n, err := MD1Number(0.5, 1)
	if err != nil || !almost(n, 0.75, 1e-12) {
		t.Errorf("MD1Number = %v, %v", n, err)
	}
	d, err := MD1Delay(0.5, 1)
	if err != nil || !almost(d, 1.5, 1e-12) {
		t.Errorf("MD1Delay = %v, %v", d, err)
	}
	// Zero arrivals: delay is the bare service time.
	d, err = MD1Delay(0, 2)
	if err != nil || d != 2 {
		t.Errorf("MD1Delay(0,2) = %v, %v", d, err)
	}
}

func TestMM1IsTwiceMD1WaitInHeavyTraffic(t *testing.T) {
	// Lemma 9's engine: the waiting part of M/M/1 is exactly twice that of
	// M/D/1 at the same rates, so N and T differ by a factor approaching 2
	// as rho -> 1.
	for _, rho := range []float64{0.9, 0.99, 0.999} {
		nm, _ := MM1Number(rho, 1)
		nd, _ := MD1Number(rho, 1)
		ratio := nm / nd
		if ratio < 1 || ratio > 2 {
			t.Errorf("rho=%v: MM1/MD1 = %v, want within (1,2]", rho, ratio)
		}
		if rho >= 0.99 && ratio < 1.9 {
			t.Errorf("rho=%v: ratio %v should approach 2", rho, ratio)
		}
	}
}

func TestMG1ReducesToMM1AndMD1(t *testing.T) {
	f := func(raw uint8) bool {
		rho := 0.01 + float64(raw)/260.0 // in (0, ~0.99)
		// Exponential service, mean 1: E[S²] = 2.
		nExp, err1 := MG1Number(rho, 1, 2)
		nMM, err2 := MM1Number(rho, 1)
		if err1 != nil || err2 != nil {
			return false
		}
		// Deterministic service: E[S²] = 1.
		nDet, err3 := MG1Number(rho, 1, 1)
		nMD, err4 := MD1Number(rho, 1)
		if err3 != nil || err4 != nil {
			return false
		}
		return almost(nExp, nMM, 1e-9) && almost(nDet, nMD, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMG1Invalid(t *testing.T) {
	if _, err := MG1Number(0.5, 1, 0.5); err == nil {
		t.Error("E[S²] < E[S]² accepted")
	}
	if _, err := MG1Number(2, 1, 1); !errors.Is(err, ErrUnstable) {
		t.Error("unstable M/G/1 accepted")
	}
}

func TestLittle(t *testing.T) {
	if LittleN(4, 2.5) != 10 {
		t.Error("LittleN")
	}
	if LittleT(10, 4) != 2.5 {
		t.Error("LittleT")
	}
	if LittleT(10, 0) != 0 {
		t.Error("LittleT zero-rate guard")
	}
}

func TestJacksonNumber(t *testing.T) {
	lambda := []float64{0.5, 0.25, 0}
	phi := []float64{1, 1, 1}
	n, err := JacksonNumber(lambda, phi)
	if err != nil || !almost(n, 1+1.0/3, 1e-12) {
		t.Errorf("JacksonNumber = %v, %v", n, err)
	}
	if _, err := JacksonNumber([]float64{1}, []float64{1}); !errors.Is(err, ErrUnstable) {
		t.Error("unstable Jackson accepted")
	}
	if _, err := JacksonNumber([]float64{1, 2}, []float64{3}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestMD1SystemLessThanJackson(t *testing.T) {
	// Lemma 9 at the network level: the M/D/1 system has at most the
	// Jackson number, and at least half of it.
	lambda := []float64{0.9, 0.5, 0.1, 0.99}
	phi := []float64{1, 1, 1, 1}
	nj, err1 := JacksonNumber(lambda, phi)
	nd, err2 := MD1SystemNumber(lambda, phi)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if nd > nj || nj > 2*nd {
		t.Errorf("Jackson %v vs MD1 %v violates Lemma 9 sandwich", nj, nd)
	}
}

func TestLoad(t *testing.T) {
	got := Load([]float64{0.5, 0.2}, []float64{1, 0.25})
	if !almost(got, 0.8, 1e-12) {
		t.Errorf("Load = %v", got)
	}
}

func TestOptimalAllocationConstraintAndFormula(t *testing.T) {
	lambda := []float64{1, 2, 0.5}
	cost := []float64{1, 2, 4}
	budget := 20.0
	phi, dstar, err := OptimalAllocation(lambda, cost, budget)
	if err != nil {
		t.Fatal(err)
	}
	// Budget exactly spent.
	spent := 0.0
	for j := range phi {
		spent += phi[j] * cost[j]
		if phi[j] <= lambda[j] {
			t.Errorf("queue %d not stable: phi=%v lambda=%v", j, phi[j], lambda[j])
		}
	}
	if !almost(spent, budget, 1e-9) {
		t.Errorf("budget spent = %v, want %v", spent, budget)
	}
	wantDstar := budget - (1*1 + 2*2 + 0.5*4)
	if !almost(dstar, wantDstar, 1e-12) {
		t.Errorf("D* = %v, want %v", dstar, wantDstar)
	}
	// Closed-form N matches direct Jackson evaluation at the optimum.
	nOpt, err := OptimalNumber(lambda, cost, budget)
	if err != nil {
		t.Fatal(err)
	}
	nJack, err := JacksonNumber(lambda, phi)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(nOpt, nJack, 1e-9) {
		t.Errorf("OptimalNumber %v != Jackson at optimum %v", nOpt, nJack)
	}
}

func TestOptimalAllocationIsOptimal(t *testing.T) {
	// Perturbing the optimal allocation (moving budget between two queues)
	// must not decrease the Jackson number.
	lambda := []float64{1, 2, 0.5, 3}
	cost := []float64{1, 3, 2, 0.5}
	budget := 25.0
	phi, _, err := OptimalAllocation(lambda, cost, budget)
	if err != nil {
		t.Fatal(err)
	}
	base, err := JacksonNumber(lambda, phi)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(phi); i++ {
		for j := 0; j < len(phi); j++ {
			if i == j {
				continue
			}
			// Move eps of budget from queue i to queue j.
			eps := 0.01
			mod := append([]float64(nil), phi...)
			mod[i] -= eps / cost[i]
			mod[j] += eps / cost[j]
			if mod[i] <= lambda[i] {
				continue
			}
			n, err := JacksonNumber(lambda, mod)
			if err != nil {
				continue
			}
			if n < base-1e-9 {
				t.Errorf("perturbation (%d->%d) improved N: %v < %v", i, j, n, base)
			}
		}
	}
}

func TestOptimalAllocationInfeasible(t *testing.T) {
	_, _, err := OptimalAllocation([]float64{5}, []float64{1}, 4)
	if !errors.Is(err, ErrUnstable) {
		t.Errorf("infeasible budget accepted: %v", err)
	}
	if _, err := OptimalNumber([]float64{5}, []float64{1}, 4); !errors.Is(err, ErrUnstable) {
		t.Error("OptimalNumber infeasible accepted")
	}
}
