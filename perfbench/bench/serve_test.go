package bench

import (
	"reflect"
	"testing"

	"power5prio"
)

func spec(a, b string) power5prio.Spec {
	return power5prio.Spec{A: a, B: b, PA: power5prio.Medium, PB: power5prio.Medium}
}

func TestClassifyPartition(t *testing.T) {
	warm1, warm2 := spec("cpu_int", "cpu_fp"), spec("cpu_fp", "cpu_int")
	cold1 := power5prio.Spec{A: "ldint_mem", B: "ldint_l2", PA: power5prio.MediumHigh, PB: power5prio.Medium}
	est := warm2
	est.Estimate, est.EstimateTol = power5prio.EstimateWithin, 0.38
	cold := map[string]bool{Key(cold1): true}
	touched := map[string]bool{}

	steps := []struct {
		q    Query
		want string
	}{
		{Query{[]power5prio.Spec{warm1}}, ClassDisk},          // first touch of a warm key
		{Query{[]power5prio.Spec{warm1}}, ClassHit},           // second touch
		{Query{[]power5prio.Spec{est, warm1}}, ClassEstimate}, // estimates win and send nothing
		{Query{[]power5prio.Spec{warm1, warm2}}, ClassDisk},   // warm2 still untouched
		{Query{[]power5prio.Spec{warm1, cold1}}, ClassCold},   // a cold first touch dominates
		{Query{[]power5prio.Spec{cold1, warm2}}, ClassHit},
	}
	for i, s := range steps {
		if got := Classify(s.q, touched, cold); got != s.want {
			t.Errorf("step %d: Classify = %s, want %s", i, got, s.want)
		}
	}
	// The estimate query must not have marked its key as sent: warm2
	// was first sent by step 3, which therefore classified as disk.
	if !touched[Key(warm2)] || len(touched) != 3 {
		t.Errorf("touched = %v", touched)
	}
}

func TestKeyIgnoresEstimateChoice(t *testing.T) {
	a := spec("cpu_int", "cpu_fp")
	b := a
	b.Estimate, b.EstimateTol = power5prio.EstimateWithin, 0.38
	if Key(a) != Key(b) {
		t.Fatalf("Key(%v) != Key(%v)", a, b)
	}
}

func TestGeneratorIsSeededAndScheduled(t *testing.T) {
	sv := ServeMixed()
	stream := func(seed int64, client int) []Query {
		g := sv.NewGenerator(seed, client)
		out := make([]Query, 400)
		for i := range out {
			out[i] = g.Next()
		}
		return out
	}
	a, b := stream(3, 0), stream(3, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed and client gave different streams")
	}
	if reflect.DeepEqual(a, stream(3, 1)) || reflect.DeepEqual(a, stream(4, 0)) {
		t.Fatal("different clients or seeds gave the same stream")
	}
	estimates, colds := 0, 0
	for i, q := range a {
		n := i + 1
		switch {
		case n%sv.ColdEvery == 0 && n/sv.ColdEvery <= len(sv.Cold):
			colds++
			if len(q.Specs) != 1 || q.Specs[0] != sv.Cold[n/sv.ColdEvery-1] {
				t.Errorf("query %d = %v, want cold key %d", n, q.Specs, n/sv.ColdEvery-1)
			}
		case q.Estimates():
			estimates++
		}
		if len(q.Specs) < 1 || len(q.Specs) > sv.MaxSpecs {
			t.Errorf("query %d has %d specs", n, len(q.Specs))
		}
	}
	if estimates != 400/sv.EstimateEvery || colds != len(sv.Cold) {
		t.Errorf("%d estimate and %d cold queries in 400, want %d and %d", estimates, colds, 400/sv.EstimateEvery, len(sv.Cold))
	}
}
