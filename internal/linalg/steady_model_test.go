package linalg_test

import (
	"testing"

	"pepatags/internal/core"
	"pepatags/internal/dist"
	"pepatags/internal/linalg"
)

// TestGaussSeidelKernelMatchesOracleTAGH2 runs the differential check
// of steady_test.go on a small H2 TAG chain, the shape of the paper's
// Figure 12 at reduced buffer sizes.
func TestGaussSeidelKernelMatchesOracleTAGH2(t *testing.T) {
	m := core.NewTAGH2(11, dist.H2ForTAG(0.1, 0.95, 10), 40, 6, 4, 4)
	q := m.Build().Generator()
	linalg.CheckGaussSeidelMatchesOracle(t, "tagh2", q, linalg.Options{})
	linalg.CheckGaussSeidelMatchesOracle(t, "tagh2 omega=1.1", q, linalg.Options{Omega: 1.1})
}
