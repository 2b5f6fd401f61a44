package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// tail estimated from fewer is one or two outliers, not a percentile.
const minTail = 10

// percentile returns the Harrell–Davis estimate of the p-th percentile of
// xs: the mean of all order statistics weighted by a Beta((n+1)q, (n+1)(1-q))
// density, q = p/100. On this benchmark's job times it varies less from run
// to run than the single nearest-rank sample, whose value jumps whenever
// timing noise reorders the few jobs around that rank. It refuses when fewer
// than tail samples lie beyond the nearest rank.
func percentile(xs []float64, p float64, tail int) (float64, error) {
	n := len(xs)
	q := p / 100
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < tail || q <= 0 || q >= 1 {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p, n, max(n-rank, 0), tail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := float64(n+1)*q, float64(n+1)*(1-q)
	var est, prev float64
	for i := 1; i <= n; i++ {
		cur := regIncBeta(a, b, float64(i)/float64(n))
		est += (cur - prev) * s[i-1]
		prev = cur
	}
	return est, nil
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (modified Lentz's method).
func regIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	case x > (a+1)/(a+b+2):
		return 1 - regIncBeta(b, a, 1-x)
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab-la-lb+a*math.Log(x)+b*math.Log1p(-x)) / a

	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	f := d
	for m := 1.0; m <= 1000; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		f *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		delta := d * c
		f *= delta
		if math.Abs(delta-1) < 1e-14 {
			break
		}
	}
	return front * f
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
