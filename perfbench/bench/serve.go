package bench

import (
	"math/rand/v2"

	"power5prio"
)

// ServeName is the serving workload's name.
const ServeName = "serve_mixed"

// Query classes: how the generator expects a query to be answered,
// which the per-class latency rows (service.query_ms.*) are split by.
const (
	ClassHit      = "hit"      // every spec already served once: daemon memory tier
	ClassDisk     = "disk"     // first touch of a pre-warmed key: daemon disk tier
	ClassEstimate = "estimate" // carries EstimateWithin specs: client-side tier 0
	ClassCold     = "cold"     // first touch of a key on no tier: simulated on the worker
)

// Classes lists the query classes in report order.
var Classes = []string{ClassHit, ClassDisk, ClassEstimate, ClassCold}

// Serve describes the serving workload's key space and query mix.
type Serve struct {
	Opts power5prio.MeasureOptions
	// Warm keys are measured into the daemon's store at set-up; Cold
	// keys are on no tier until a client asks for them.
	Warm, Cold []power5prio.Spec
	// EstimateEvery: every client's EstimateEvery-th query (offset by
	// half a period) carries EstimateWithin specs. A fixed schedule
	// rather than a coin flip keeps the mix, and so the run's total
	// work, the same for every seed.
	EstimateEvery int
	// ColdEvery: every client's ColdEvery-th query asks for the next
	// cold key, so both clients ask for it at about the same time and
	// the daemon can coalesce the two requests.
	ColdEvery int
	// MaxSpecs bounds the specs in one query (one CLI invocation).
	MaxSpecs int
}

// ServeMixed is the serve_mixed workload: the Table 3 key space (every
// workload alone and every (4,4) pair) pre-warmed on disk, a few cold
// co-runs at unequal priorities, and one query in ten asking for
// estimates. Quick FAME options, as `p5exp -quick -submit` uses.
func ServeMixed() Serve {
	sv := Serve{Opts: QuickOptions(), EstimateEvery: 10, ColdEvery: 40, MaxSpecs: 8}
	for _, a := range PaperWorkloads {
		sv.Warm = append(sv.Warm, power5prio.Spec{A: a})
		for _, b := range PaperWorkloads {
			sv.Warm = append(sv.Warm, power5prio.Spec{A: a, B: b, PA: power5prio.Medium, PB: power5prio.Medium})
		}
	}
	for _, c := range [][2]string{
		{"ldint_mem", "ldint_l2"}, {"ldint_l2", "ldint_mem"}, {"ldint_mem", "cpu_fp"},
		{"cpu_fp", "ldint_mem"}, {"ldint_l2", "ldint_l2"}, {"ldint_mem", "ldint_mem"},
	} {
		sv.Cold = append(sv.Cold, power5prio.Spec{A: c[0], B: c[1], PA: power5prio.MediumHigh, PB: power5prio.Medium})
	}
	return sv
}

// Key identifies a measurement independent of how it may be answered.
func Key(sp power5prio.Spec) string {
	sp.Estimate, sp.EstimateTol = power5prio.EstimateDefault, 0
	return sp.String()
}

// Query is one client invocation: a fresh System measuring Specs.
type Query struct {
	Specs []power5prio.Spec
}

// Estimates reports whether the query asks for tier-0 answers.
func (q Query) Estimates() bool {
	for _, sp := range q.Specs {
		if sp.Estimate == power5prio.EstimateWithin {
			return true
		}
	}
	return false
}

// pairs returns the warm co-run specs, the ones tier 0 can estimate.
func (sv Serve) pairs() []power5prio.Spec {
	var out []power5prio.Spec
	for _, sp := range sv.Warm {
		if sp.B != "" {
			out = append(out, sp)
		}
	}
	return out
}

// Generator produces one client's seeded query stream.
type Generator struct {
	sv    Serve
	rng   *rand.Rand
	pairs []power5prio.Spec
	n     int
}

// NewGenerator seeds client's stream from the workload seed.
func (sv Serve) NewGenerator(seed int64, client int) *Generator {
	return &Generator{sv: sv, rng: rand.New(rand.NewPCG(uint64(seed), uint64(client)+1)), pairs: sv.pairs()}
}

// Next returns the client's next query.
func (g *Generator) Next() Query {
	g.n++
	if k := g.n / g.sv.ColdEvery; g.n%g.sv.ColdEvery == 0 && k <= len(g.sv.Cold) {
		return Query{Specs: []power5prio.Spec{g.sv.Cold[k-1]}}
	}
	n := 1 + g.rng.IntN(g.sv.MaxSpecs)
	q := Query{Specs: make([]power5prio.Spec, n)}
	if g.n%g.sv.EstimateEvery == g.sv.EstimateEvery/2 {
		tol := power5prio.DefaultEstimateTolerance()
		for i := range q.Specs {
			sp := g.pairs[g.rng.IntN(len(g.pairs))]
			sp.Estimate, sp.EstimateTol = power5prio.EstimateWithin, tol
			q.Specs[i] = sp
		}
		return q
	}
	for i := range q.Specs {
		q.Specs[i] = g.sv.Warm[g.rng.IntN(len(g.sv.Warm))]
	}
	return q
}

// Classify names the tier the generator expects to answer q, given the
// keys earlier queries already sent to the daemon, and marks q's keys
// as sent. An estimate query is answered in the client and sends
// nothing; otherwise the farthest tier any spec needs decides: a cold
// key never sent is simulated, a warm key never sent is read from disk,
// and a query whose keys were all sent before is a memory hit. The
// caller serializes calls that share touched.
func Classify(q Query, touched, cold map[string]bool) string {
	if q.Estimates() {
		return ClassEstimate
	}
	class := ClassHit
	for _, sp := range q.Specs {
		k := Key(sp)
		switch {
		case touched[k]:
		case cold[k]:
			class = ClassCold
		case class == ClassHit:
			class = ClassDisk
		}
		touched[k] = true
	}
	return class
}
