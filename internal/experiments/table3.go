package experiments

import (
	"context"

	"power5prio/internal/microbench"
	"power5prio/internal/report"
)

// Table3Result reproduces Table 3: single-thread IPC and the 6x6 SMT (4,4)
// co-run matrix (primary-thread IPC and total IPC per cell).
type Table3Result struct {
	Names  []string
	Matrix *MatrixResult
}

// Table3 regenerates the paper's Table 3. The 6x6 grid plus the ST
// column is submitted as one batch; its (4,4) cells are the same jobs
// Figures 2-4 use as baselines, so a shared harness measures them once.
// A cancelled run returns the partial matrix with the context's error.
func Table3(ctx context.Context, h Harness) (Table3Result, error) {
	names := microbench.Presented()
	m, err := RunMatrix(ctx, h, names, names, []int{0})
	return Table3Result{Names: names, Matrix: m}, err
}

// Render produces the table in the paper's layout: one row per primary
// benchmark, with its ST IPC and per-secondary (pt, tt) pairs.
func (r Table3Result) Render() *report.Table {
	header := []string{"benchmark", "IPC_ST"}
	for _, s := range r.Names {
		header = append(header, s+"/pt", s+"/tt")
	}
	t := report.NewTable("Table 3: IPC in ST mode and in SMT with priorities (4,4)", header...)
	for _, p := range r.Names {
		row := []string{p, report.F2(r.Matrix.SingleIPC[p])}
		for _, s := range r.Names {
			m := r.Matrix.At(p, s, 0)
			row = append(row, report.F2(m.Primary), report.F2(m.Total))
		}
		t.AddRow(row...)
	}
	return t
}

// RenderComparison produces the paper-vs-measured table `p5exp -exp
// table3` prints after the measured one.
func (r Table3Result) RenderComparison() *report.Table {
	t := report.NewTable("Table 3 paper vs simulated",
		"primary", "secondary", "pt_paper", "pt_sim", "tt_paper", "tt_sim")
	for _, p := range r.Names {
		t.AddRow(p, "(ST)", report.F2(PaperTable3ST[p]), report.F2(r.Matrix.SingleIPC[p]), "-", "-")
		for _, s := range r.Names {
			m := r.Matrix.At(p, s, 0)
			pc := PaperTable3[p][s]
			t.AddRow(p, s, report.F2(pc.PT), report.F2(m.Primary), report.F2(pc.TT), report.F2(m.Total))
		}
	}
	return t
}
