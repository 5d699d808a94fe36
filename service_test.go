package power5prio

import (
	"context"
	"math"
	"net/http/httptest"
	"testing"

	"power5prio/internal/analytic"
	"power5prio/internal/engine"
	"power5prio/internal/remote"
	"power5prio/internal/service"
)

// startDaemon serves a p5d daemon over eng (executing on fleet, or on
// eng's own backend when fleet is nil) on a loopback listener, with the
// analytical estimator p5d attaches, and returns it with its URL.
func startDaemon(t *testing.T, ctx context.Context, eng *engine.Engine, fleet *remote.ShardedBackend) (*service.Daemon, string) {
	t.Helper()
	eng.SetEstimator(analytic.New(eng))
	d := service.New(eng, fleet, service.Config{})
	runCtx, cancel := context.WithCancel(ctx)
	go d.Run(runCtx)
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		srv.Close()
		d.Close()
		cancel()
	})
	return d, srv.URL
}

// serviceTestOptions keeps the service tests' simulations short.
func serviceTestOptions() MeasureOptions {
	opts := DefaultMeasureOptions()
	opts.MinReps = 2
	opts.WarmupReps = 0
	return opts
}

// TestWithService: a System submitting its measurements to a p5d daemon
// whose fleet is two registered workers returns bit-identical results
// to a local System, and the batch's duplicate spec travels once. A
// spec that accepts an estimate is answered by the daemon's tier 0,
// within its error bar of the exact value.
func TestWithService(t *testing.T) {
	if testing.Short() {
		t.Skip("chip-level simulation")
	}
	ctx := context.Background()
	fleet := remote.NewDynamic()
	d, url := startDaemon(t, ctx, engine.NewWith(0, nil, engine.WithBackend(fleet)), fleet)
	for range 2 {
		w := httptest.NewServer(remote.NewServer(remote.ServerConfig{Workers: 2}).Handler())
		t.Cleanup(w.Close)
		if _, err := service.NewClient(url).RegisterWorker(ctx, w.URL); err != nil {
			t.Fatal(err)
		}
	}

	opts := serviceTestOptions()
	specs := []Spec{
		{A: "cpu_int"},
		{A: "cpu_int", B: "ldint_l1", PA: High, PB: Low},
		{A: "cpu_int", B: "mcf", PA: Medium, PB: Medium},
		{A: "ldint_l1", B: "cpu_int", PA: Low, PB: VeryHigh},
		{A: "cpu_int", B: "ldint_l1", PA: High, PB: Low}, // duplicate
	}

	local := New(DefaultConfig(), WithMeasureOptions(opts))
	want, err := local.MeasureBatch(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}

	sys := New(DefaultConfig(), WithMeasureOptions(opts), WithService(url))
	got, err := sys.MeasureBatch(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if got[i] != want[i] {
			t.Errorf("spec %v: served result differs from local\nserved %+v\nlocal  %+v", specs[i], got[i], want[i])
		}
	}
	if st := sys.BatchStats(); st.Remote.Jobs != 4 || st.Remote.WorkerErrors != 0 || st.Remote.Retries != 0 {
		t.Errorf("client remote counters %+v, want 4 jobs and no failures", st.Remote)
	}
	if st := d.Stats(); st.Submitted != 4 || st.Simulated != 4 || st.Requeued != 0 {
		t.Errorf("daemon stats %+v, want the 4 unique measurements submitted and simulated once", st)
	}

	est := Spec{A: "ldint_l1", B: "cpu_int", PA: Medium, PB: Medium, Estimate: EstimateWithin, EstimateTol: DefaultEstimateTolerance()}
	exact, err := local.Measure(ctx, Spec{A: est.A, B: est.B})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.MeasureResults(ctx, []Spec{est})
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if !r.Estimated || r.ErrorBar <= 0 || r.ErrorBar > est.EstimateTol {
		t.Fatalf("estimate spec = %+v, want an estimate within tolerance %v", r, est.EstimateTol)
	}
	for k := range r.Pair.Thread {
		if diff := math.Abs(r.Pair.Thread[k].IPC - exact.Thread[k].IPC); diff > r.ErrorBar {
			t.Errorf("thread %d: estimated IPC %.4f is %.4f from exact %.4f, beyond error bar %.4f",
				k, r.Pair.Thread[k].IPC, diff, exact.Thread[k].IPC, r.ErrorBar)
		}
	}
	if st := d.Stats(); st.EstimatedHits == 0 {
		t.Errorf("daemon stats %+v, want the estimate answered by the daemon's tier 0", st)
	}
}

// TestServiceExactSpecOnEstimatingDaemon: a spec that demands an exact
// answer gets one through WithService even from a daemon whose default
// for spec-less submissions is to estimate everything.
func TestServiceExactSpecOnEstimatingDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("chip-level simulation")
	}
	ctx := context.Background()
	eng := engine.New(0)
	_, url := startDaemon(t, ctx, eng, nil)
	eng.SetEstimateMode(engine.EstimateAlways())

	opts := serviceTestOptions()
	sp := Spec{A: "cpu_int", B: "ldint_l1", PA: High, PB: Low, Estimate: EstimateNever}
	want, err := New(DefaultConfig(), WithMeasureOptions(opts)).Measure(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(DefaultConfig(), WithMeasureOptions(opts), WithService(url)).MeasureResults(ctx, []Spec{sp})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Estimated || res[0].Pair != want {
		t.Errorf("EstimateNever spec on an estimating daemon = %+v, want the exact local result %+v", res[0], want)
	}
}
