package power5prio

import (
	"context"
	"net/http/httptest"
	"testing"

	"power5prio/internal/engine"
	"power5prio/internal/remote"
	"power5prio/internal/service"
)

// TestWithService: a System submitting its measurements to a p5d daemon
// whose fleet is two registered workers returns bit-identical results
// to a local System, and the batch's duplicate spec travels once.
func TestWithService(t *testing.T) {
	if testing.Short() {
		t.Skip("chip-level simulation")
	}
	ctx, cancel := context.WithCancel(context.Background())
	fleet := remote.NewDynamic()
	d := service.New(engine.NewWith(0, nil, engine.WithBackend(fleet)), fleet, service.Config{})
	go d.Run(ctx)
	daemon := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		daemon.Close()
		d.Close()
		cancel()
	})
	for range 2 {
		w := httptest.NewServer(remote.NewServer(remote.ServerConfig{Workers: 2}).Handler())
		t.Cleanup(w.Close)
		if _, err := service.RegisterWorker(ctx, daemon.URL, w.URL); err != nil {
			t.Fatal(err)
		}
	}

	opts := DefaultMeasureOptions()
	opts.MinReps = 2
	opts.WarmupReps = 0
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

	sys := New(DefaultConfig(), WithMeasureOptions(opts), WithService(daemon.URL))
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
}
