package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Metric is one named figure with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's verdict line: the last line of standard
// output, one JSON object.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Set records a metric.
func (r *Result) Set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]Metric)
	}
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

// Env is the run's identity, printed with every report: enough to tell
// whether two reports are comparable.
type Env struct {
	Workload   string
	Seed       int64
	Seconds    float64
	Trace      bool
	NProc      int
	GoMaxProcs int
	GoVersion  string
	Commit     string
	Workers    int // engine or worker-process simulation workers
	Clients    int // concurrent load-generator clients
}

// NewEnv fills the host fields of an Env. The commit comes from the
// wrapper script, which knows the checkout.
func NewEnv(workload string, seed int64, seconds float64, trace bool, commit string) Env {
	return Env{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
	}
}

// CheckLoad refuses a configuration that would run more load threads or
// client connections than the host has processors.
func (e Env) CheckLoad() error {
	if e.Workers > e.NProc || e.Clients > e.NProc {
		return fmt.Errorf("refusing to run %d workers and %d clients on %d processors", e.Workers, e.Clients, e.NProc)
	}
	return nil
}

// Print writes the human-readable report lines: the environment, any
// notes, then every metric sorted by name.
func (e Env) Print(w io.Writer, res Result, notes []string) {
	fmt.Fprintf(w, "env: workload=%s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d go=%s commit=%s workers=%d clients=%d\n",
		e.Workload, e.Seed, e.Seconds, e.Trace, e.NProc, e.GoMaxProcs, e.GoVersion, e.Commit, e.Workers, e.Clients)
	for _, n := range notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "metric: %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "verdict: correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}

// WriteResult prints the verdict line as the last line of w.
func WriteResult(w io.Writer, res Result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// PeakRSSMB returns the peak resident set (VmHWM) of a process in MiB;
// pid 0 means this process.
func PeakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}
