package core

import "github.com/faasmem/faasmem/internal/pagemem"

// The helpers below read Pucket and Stats state that only tests check.

// HotPages counts this Pucket's pages currently in the hot page pool.
func (p Pucket) HotPages(s *pagemem.Space) int {
	return s.CountInRange(p.Seg, pagemem.Hot)
}

// RemotePages counts this Pucket's pages offloaded to the pool.
func (p Pucket) RemotePages(s *pagemem.Space) int {
	return s.CountInRange(p.Seg, pagemem.Remote)
}

// SemiWarmShares extracts the per-container semi-warm lifetime fractions.
func (s *Stats) SemiWarmShares() []float64 {
	out := make([]float64, len(s.Containers))
	for i, c := range s.Containers {
		out[i] = c.SemiWarmShare
	}
	return out
}
