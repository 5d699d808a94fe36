package experiments

import "power5prio/internal/microbench"

// Paper reference values, transcribed from Boneti et al., ISCA 2008.
// `p5exp -exp table3` prints the paper-vs-measured comparison built on
// them, and `p5exp -verify` checks the headline claims.

// PaperTable3ST holds the single-thread IPCs of Table 3.
var PaperTable3ST = map[string]float64{
	microbench.LdIntL1:        2.29,
	microbench.LdIntL2:        0.27,
	microbench.LdIntMem:       0.02,
	microbench.CPUInt:         1.14,
	microbench.CPUFP:          0.41,
	microbench.LngChainCPUInt: 0.51,
}

// PaperCell is one SMT (4,4) measurement from Table 3: the primary
// thread's IPC and the pair's total IPC.
type PaperCell struct{ PT, TT float64 }

// PaperTable3 holds the full 6x6 SMT(4,4) matrix of Table 3, indexed
// [primary][secondary].
var PaperTable3 = map[string]map[string]PaperCell{
	microbench.LdIntL1: {
		microbench.LdIntL1:        {1.15, 2.31},
		microbench.LdIntL2:        {0.60, 0.87},
		microbench.LdIntMem:       {0.79, 0.81},
		microbench.CPUInt:         {0.73, 1.57},
		microbench.CPUFP:          {0.77, 1.18},
		microbench.LngChainCPUInt: {0.42, 0.91},
	},
	microbench.LdIntL2: {
		microbench.LdIntL1:        {0.27, 0.87},
		microbench.LdIntL2:        {0.11, 0.22},
		microbench.LdIntMem:       {0.17, 0.19},
		microbench.CPUInt:         {0.27, 0.87},
		microbench.CPUFP:          {0.25, 0.65},
		microbench.LngChainCPUInt: {0.27, 0.72},
	},
	microbench.LdIntMem: {
		microbench.LdIntL1:        {0.02, 0.81},
		microbench.LdIntL2:        {0.02, 0.19},
		microbench.LdIntMem:       {0.01, 0.02},
		microbench.CPUInt:         {0.02, 0.90},
		microbench.CPUFP:          {0.02, 0.39},
		microbench.LngChainCPUInt: {0.02, 0.48},
	},
	microbench.CPUInt: {
		microbench.LdIntL1:        {0.84, 1.57},
		microbench.LdIntL2:        {0.59, 0.87},
		microbench.LdIntMem:       {0.88, 0.90},
		microbench.CPUInt:         {0.61, 1.22},
		microbench.CPUFP:          {0.65, 1.06},
		microbench.LngChainCPUInt: {0.43, 0.86},
	},
	microbench.CPUFP: {
		microbench.LdIntL1:        {0.41, 1.18},
		microbench.LdIntL2:        {0.39, 0.65},
		microbench.LdIntMem:       {0.37, 0.39},
		microbench.CPUInt:         {0.40, 1.06},
		microbench.CPUFP:          {0.36, 0.72},
		microbench.LngChainCPUInt: {0.37, 0.85},
	},
	microbench.LngChainCPUInt: {
		microbench.LdIntL1:        {0.49, 0.91},
		microbench.LdIntL2:        {0.45, 0.73},
		microbench.LdIntMem:       {0.47, 0.48},
		microbench.CPUInt:         {0.43, 0.86},
		microbench.CPUFP:          {0.48, 0.85},
		microbench.LngChainCPUInt: {0.42, 0.85},
	},
}

// Paper headline numbers quoted in the abstract and Section 5.
const (
	// PaperFig5aPeakGain: h264ref+mcf throughput case study peak (+23.7%).
	PaperFig5aPeakGain = 0.237
	// PaperFig5bPeakGain: applu+equake throughput case study peak (+14%).
	PaperFig5bPeakGain = 0.14
	// PaperTable4BestGain: FFT/LU execution-time improvement at (6,4)
	// versus default priorities (9.3%).
	PaperTable4BestGain = 0.093
)

// PaperTable4 holds the FFT/LU case-study times in seconds (Table 4):
// priorities, FFT time, LU time, iteration time.
type PaperTable4Row struct {
	PrioFFT, PrioLU int // 0,0 marks the single-thread row
	FFT, LU, Iter   float64
}

// PaperTable4Rows transcribes Table 4.
var PaperTable4Rows = []PaperTable4Row{
	{0, 0, 1.86, 0.26, 2.12}, // single-thread mode (sequential)
	{4, 4, 2.05, 0.42, 2.05},
	{5, 4, 2.02, 0.48, 2.02},
	{6, 4, 1.91, 0.64, 1.91},
	{6, 3, 1.87, 2.33, 2.33},
}
