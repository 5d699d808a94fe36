package bench

import "math"

// The published IPCs the fidelity metric compares against: Table 3 of
// Boneti et al., "Software-Controlled Priority Characterization of
// POWER5 Processor", ISCA 2008. Single-thread IPCs, then the SMT (4,4)
// matrix as {primary thread IPC, total IPC}, indexed [primary][secondary].
// The benchmark keeps its own copy so the end-to-end path reads no
// internal package.
var paperST = map[string]float64{
	"ldint_l1": 2.29, "ldint_l2": 0.27, "ldint_mem": 0.02,
	"cpu_int": 1.14, "cpu_fp": 0.41, "lng_chain_cpuint": 0.51,
}

var paperSMT = map[string]map[string][2]float64{
	"ldint_l1": {
		"ldint_l1": {1.15, 2.31}, "ldint_l2": {0.60, 0.87}, "ldint_mem": {0.79, 0.81},
		"cpu_int": {0.73, 1.57}, "cpu_fp": {0.77, 1.18}, "lng_chain_cpuint": {0.42, 0.91},
	},
	"ldint_l2": {
		"ldint_l1": {0.27, 0.87}, "ldint_l2": {0.11, 0.22}, "ldint_mem": {0.17, 0.19},
		"cpu_int": {0.27, 0.87}, "cpu_fp": {0.25, 0.65}, "lng_chain_cpuint": {0.27, 0.72},
	},
	"ldint_mem": {
		"ldint_l1": {0.02, 0.81}, "ldint_l2": {0.02, 0.19}, "ldint_mem": {0.01, 0.02},
		"cpu_int": {0.02, 0.90}, "cpu_fp": {0.02, 0.39}, "lng_chain_cpuint": {0.02, 0.48},
	},
	"cpu_int": {
		"ldint_l1": {0.84, 1.57}, "ldint_l2": {0.59, 0.87}, "ldint_mem": {0.88, 0.90},
		"cpu_int": {0.61, 1.22}, "cpu_fp": {0.65, 1.06}, "lng_chain_cpuint": {0.43, 0.86},
	},
	"cpu_fp": {
		"ldint_l1": {0.41, 1.18}, "ldint_l2": {0.39, 0.65}, "ldint_mem": {0.37, 0.39},
		"cpu_int": {0.40, 1.06}, "cpu_fp": {0.36, 0.72}, "lng_chain_cpuint": {0.37, 0.85},
	},
	"lng_chain_cpuint": {
		"ldint_l1": {0.49, 0.91}, "ldint_l2": {0.45, 0.73}, "ldint_mem": {0.47, 0.48},
		"cpu_int": {0.43, 0.86}, "cpu_fp": {0.48, 0.85}, "lng_chain_cpuint": {0.42, 0.85},
	},
}

// PaperWorkloads lists the workloads Table 3 covers, in its order.
var PaperWorkloads = []string{"ldint_l1", "ldint_l2", "ldint_mem", "cpu_int", "cpu_fp", "lng_chain_cpuint"}

// IPCs is what a workload regenerated: single-thread IPC per workload
// and (4,4) co-run {primary, total} IPC per ordered pair.
type IPCs struct {
	ST  map[string]float64
	SMT map[[2]string][2]float64
}

// PaperMAE is the mean absolute IPC error against Table 3 over every
// value the run regenerated that the table holds: each single-thread
// IPC, and each (4,4) cell's primary and total IPC. n counts the values
// compared; it is 0 when the run regenerated none of them.
func PaperMAE(got IPCs) (mae float64, n int) {
	// Sum in a fixed order so the figure is bit-for-bit repeatable.
	var errs []float64
	for _, w := range PaperWorkloads {
		if v, ok := got.ST[w]; ok {
			errs = append(errs, math.Abs(v-paperST[w]))
		}
	}
	for _, a := range PaperWorkloads {
		for _, b := range PaperWorkloads {
			v, ok := got.SMT[[2]string{a, b}]
			if !ok {
				continue
			}
			p := paperSMT[a][b]
			errs = append(errs, math.Abs(v[0]-p[0]), math.Abs(v[1]-p[1]))
		}
	}
	if len(errs) == 0 {
		return math.NaN(), 0
	}
	var sum float64
	for _, e := range errs {
		sum += e
	}
	return sum / float64(len(errs)), len(errs)
}
