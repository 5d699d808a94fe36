package experiments

import (
	"context"
	"fmt"

	"power5prio/internal/microbench"
)

// Finding is one checked claim: the paper's statement, what the simulator
// measured, and whether the shape holds.
type Finding struct {
	ID       string
	Claim    string
	Measured string
	Pass     bool
}

// String renders a one-line verdict.
func (f Finding) String() string {
	mark := "PASS"
	if !f.Pass {
		mark = "FAIL"
	}
	return fmt.Sprintf("[%s] %-8s %s — measured %s", mark, f.ID, f.Claim, f.Measured)
}

// VerifyMicrobenchClaims runs a compact set of measurements and checks the
// paper's headline micro-benchmark claims (Sections 5.1-5.3) as explicit
// pass/fail findings; `p5exp -verify` prints them and exits non-zero on
// a failure.
// The measurements are one RunMatrix batch, so they fan out across the
// harness engine's workers like every other experiment. A cancelled run
// returns no findings with the context's error — a partial claim check
// proves nothing.
func VerifyMicrobenchClaims(ctx context.Context, h Harness) ([]Finding, error) {
	names := []string{microbench.LdIntL1, microbench.CPUInt, microbench.LdIntMem}
	m, err := RunMatrix(ctx, h, names, names, []int{0, 2, 5, -5})
	if err != nil {
		return nil, err
	}
	var out []Finding

	add := func(id, claim string, measured string, pass bool) {
		out = append(out, Finding{ID: id, Claim: claim, Measured: measured, Pass: pass})
	}

	// 1. Prioritizing a cpu-bound thread buys a large speedup, saturating
	// near +2 (paper: up to 2.5x; knee at +2).
	rel2 := m.RelPrimary(microbench.LdIntL1, microbench.CPUInt, 2)
	rel5 := m.RelPrimary(microbench.LdIntL1, microbench.CPUInt, 5)
	add("F2-knee",
		"cpu-bound speedup large by +2 and near-saturated vs +5",
		fmt.Sprintf("+2: %.2fx, +5: %.2fx", rel2, rel5),
		rel2 > 1.4 && rel2 > 0.85*rel5)

	// 2. Negative priorities devastate cpu-bound threads (paper: 20-42x).
	slow := 1 / m.RelPrimary(microbench.CPUInt, microbench.LdIntMem, -5)
	add("F3-neg",
		"cpu-bound thread at -5 loses an order of magnitude or more",
		fmt.Sprintf("%.0fx slowdown", slow),
		slow >= 10)

	// 3. Memory-bound threads are insensitive except against each other
	// (paper Fig 2f/3f).
	memVsCPU := m.RelPrimary(microbench.LdIntMem, microbench.CPUInt, 5)
	memVsMem := m.RelPrimary(microbench.LdIntMem, microbench.LdIntMem, 5)
	add("F2f-mem",
		"memory thread gains ~nothing vs compute, substantially vs memory",
		fmt.Sprintf("vs cpu: %.2fx, vs mem: %.2fx", memVsCPU, memVsMem),
		memVsCPU < 1.25 && memVsMem > 1.4)

	// 4. Total throughput rule (paper Section 5.3): prioritize the
	// higher-IPC thread.
	up := m.RelTotal(microbench.LdIntL1, microbench.LdIntMem, 5)
	down := m.RelTotal(microbench.LdIntL1, microbench.LdIntMem, -5)
	add("F4-rule",
		"total IPC rises prioritizing the high-IPC thread, collapses otherwise",
		fmt.Sprintf("+5: %.2fx, -5: %.2fx", up, down),
		up > 1.3 && down < 0.5)

	// 5. Equal-priority identical threads split evenly (Table 3 diagonal).
	d := m.At(microbench.CPUInt, microbench.CPUInt, 0)
	ratio := d.Primary / d.Secondary
	add("T3-diag",
		"identical threads at (4,4) perform identically",
		fmt.Sprintf("pt/st ratio %.2f", ratio),
		ratio > 0.85 && ratio < 1.18)

	return out, nil
}
