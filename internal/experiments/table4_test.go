package experiments

import (
	"context"
	"testing"
)

func runTable4(t *testing.T) Table4Result {
	t.Helper()
	if testing.Short() {
		t.Skip("pipeline case study is a long test")
	}
	h := Quick()
	h.IterScale = 0.25
	r, err := Table4(context.Background(), h)
	if err != nil {
		t.Fatalf("Table4: %v", err)
	}
	return r
}

func TestTable4ShapeAndLog(t *testing.T) {
	r := runTable4(t)
	t.Logf("\n%s", r.Render().String())
	if len(r.Rows) != 5 {
		t.Fatalf("%d rows, want 5", len(r.Rows))
	}

	st, base := r.Rows[0], r.Rows[1]
	// FFT dominates LU in single-thread mode (paper: 1.86 vs 0.26).
	if st.FFT < 4*st.LU {
		t.Errorf("ST stage imbalance too small: FFT %.0f vs LU %.0f (want ~7x)", st.FFT, st.LU)
	}
	// At (4,4) FFT is the long pole and LU waits (paper: 2.05 vs 0.42).
	if base.Itr != base.FFT {
		t.Errorf("(4,4) iteration %.0f != FFT %.0f; FFT must be the long pole", base.Itr, base.FFT)
	}
	// LU slows substantially under SMT (paper: 1.6x).
	if base.LU < 1.3*st.LU {
		t.Errorf("(4,4) LU %.0f vs ST %.0f: want >= 1.3x slowdown", base.LU, st.LU)
	}
	// FFT slows only mildly at (4,4) (paper: +10%).
	if base.FFT > 1.35*st.FFT {
		t.Errorf("(4,4) FFT %.0f vs ST %.0f: slowdown too large", base.FFT, st.FFT)
	}
}

// TestTable4PrioritizingFFTHelps: raising FFT's priority shortens the
// iteration. The paper's optimum is (6,4) with 9.3% over (4,4); our
// simulator enforces equation (1) exactly, which shifts the optimum to
// (5,4) (the real machine's effective share at small differences was
// gentler on the deprioritized thread) — compare `p5exp -exp table4`.
func TestTable4PrioritizingFFTHelps(t *testing.T) {
	r := runTable4(t)
	base := r.Rows[1].Itr                      // (4,4)
	best := minF(r.Rows[2].Itr, r.Rows[3].Itr) // best of (5,4), (6,4)
	if best >= base {
		t.Errorf("prioritizing FFT did not help: best %.0f vs (4,4) %.0f", best, base)
	}
	if r.BestGain < 0.03 {
		t.Errorf("best gain %.1f%%, want >= 3%% (paper 9.3%%)", r.BestGain*100)
	}
	// The optimum also beats running the stages sequentially (paper: 10%
	// better than single-thread mode).
	if best >= r.Rows[0].Itr {
		t.Errorf("best SMT iteration %.0f not better than sequential %.0f", best, r.Rows[0].Itr)
	}
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// TestTable4OverPrioritizationInverts: (6,3) pushes LU past FFT and makes
// the iteration worse — the paper's cautionary result.
func TestTable4OverPrioritizationInverts(t *testing.T) {
	r := runTable4(t)
	inv := r.Rows[4] // (6,3)
	if inv.Itr != inv.LU {
		t.Errorf("(6,3): iteration %.0f != LU %.0f; LU must become the long pole", inv.Itr, inv.LU)
	}
	if !r.InversionWorse {
		t.Error("(6,3) should be worse than the optimum")
	}
	// LU collapses at -3 (paper: 0.26s ST -> 2.33s).
	if inv.LU < 3*r.Rows[0].LU {
		t.Errorf("(6,3) LU %.0f vs ST %.0f: want a large collapse", inv.LU, r.Rows[0].LU)
	}
}
