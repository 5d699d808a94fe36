package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// Definition is the part of BENCHMARK.json the benchmark reads: every
// metric's name, unit, direction and (end-to-end only) bound.
type Definition struct {
	EndToEnd []MetricDef `json:"end_to_end"`
	PerLayer []MetricDef `json:"per_layer"`
}

// MetricDef is one metric of the definition.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// LoadDefinition reads the benchmark definition.
func LoadDefinition(path string) (Definition, error) {
	var def Definition
	raw, err := os.ReadFile(path)
	if err != nil {
		return def, fmt.Errorf("read benchmark definition: %w", err)
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		return def, fmt.Errorf("parse %s: %w", path, err)
	}
	return def, nil
}

// Check verifies that a result carries exactly the defined metrics of
// its kind (per-layer for a traced run), each with its defined unit and
// a finite value.
func (d Definition) Check(res Result, traced bool) error {
	want := d.EndToEnd
	if traced {
		want = d.PerLayer
	}
	if len(res.Metrics) != len(want) {
		return fmt.Errorf("result has %d metrics, the definition %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s was not measured", m.Name)
		case got.Unit != m.Unit:
			return fmt.Errorf("metric %s has unit %q, the definition %q", m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			return fmt.Errorf("metric %s is %v", m.Name, got.Value)
		}
	}
	return nil
}

// MaxDeviation is the largest distance of any value from the median,
// as a share of the median.
func MaxDeviation(xs []float64) float64 {
	med := Median(xs)
	var dev float64
	for _, x := range xs {
		dev = math.Max(dev, math.Abs(x-med))
	}
	return dev / math.Abs(med)
}

// Steadiness runs the workload k times, with seeds 1..k, by re-running
// this program, and prints each end-to-end metric's median, quartiles,
// spread (interquartile distance over median) and largest deviation
// from the median next to its bound.
// A metric is steady when its spread stays below a third of its bound;
// setup_s is reported but held only to its median.
func Steadiness(w io.Writer, self, workload string, seconds float64, k int, defPath string, pass []string) error {
	def, err := LoadDefinition(defPath)
	if err != nil {
		return err
	}
	values := make(map[string][]float64)
	for seed := 1; seed <= k; seed++ {
		args := append([]string{"--workload", workload, "--seed", strconv.Itoa(seed),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64)}, pass...)
		var out bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w\n%s", seed, err, out.String())
		}
		res, err := lastResult(out.Bytes())
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		if !res.Correct || res.Failed != 0 {
			return fmt.Errorf("seed %d: correct=%v failed=%d", seed, res.Correct, res.Failed)
		}
		names := make([]string, 0, len(res.Metrics))
		for n := range res.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "seed %d:", seed)
		for _, n := range names {
			values[n] = append(values[n], res.Metrics[n].Value)
			fmt.Fprintf(w, " %s=%.6g", n, res.Metrics[n].Value)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "steadiness: workload=%s runs=%d seconds=%g\n", workload, k, seconds)
	fmt.Fprintf(w, "%-18s %14s %14s %14s %9s %9s %7s %s\n", "metric", "q1", "median", "q3", "spread", "max_dev", "bound", "verdict")
	unsteady := 0
	for _, m := range def.EndToEnd {
		xs := values[m.Name]
		if len(xs) < 2 {
			return fmt.Errorf("metric %s: %d values", m.Name, len(xs))
		}
		q1, med, q3 := Quartiles(xs)
		sp := Spread(xs)
		verdict := "steady"
		switch {
		case m.Name == "setup_s":
			verdict = "median only"
		case sp >= m.Bound:
			verdict = "OVER BOUND"
			unsteady++
		case sp >= m.Bound/3:
			verdict = "over a third of bound"
			unsteady++
		}
		fmt.Fprintf(w, "%-18s %14.6g %14.6g %14.6g %9.4f %9.4f %7.3f %s\n", m.Name, q1, med, q3, sp, MaxDeviation(xs), m.Bound, verdict)
	}
	if unsteady > 0 {
		return fmt.Errorf("%d metric(s) not steady", unsteady)
	}
	return nil
}

// lastResult parses the JSON verdict on the last line of out.
func lastResult(out []byte) (Result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if t := sc.Text(); t != "" {
			last = t
		}
	}
	var res Result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("parse verdict line %q: %w", last, err)
	}
	return res, nil
}
