package repro

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/webservice"
)

// parallelTestbed wires a resilient testbed with the given side-effect
// concurrency. Everything except Workers and the injector is held fixed so
// serial and parallel runs are comparable byte for byte.
func parallelTestbed(t *testing.T, clusters, workers int, inj *faults.Injector) *core.Testbed {
	t.Helper()
	tb, err := core.NewTestbed(core.Config{
		ClusterSpecs: chaosSpecs(clusters),
		Seed:         7,
		Resilience:   true,
		Faults:       inj,
		Compute:      webservice.Config{MirrorSite: "mirror", Workers: workers, MaxRetries: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestParallelWorkersByteIdenticalUnderFaults injects the recoverable chaos
// schedule into a parallel run and requires the science output to still
// match the fault-free serial run byte for byte: faults shuffle retries and
// failovers, never results.
func TestParallelWorkersByteIdenticalUnderFaults(t *testing.T) {
	clean, err := core.RunCampaign(parallelTestbed(t, 2, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := renderTables(t, clean)

	inj := recoverableSchedule()
	faulted, err := core.RunCampaign(parallelTestbed(t, 2, 8, inj))
	if err != nil {
		t.Fatalf("recoverable faults must not fail the parallel campaign: %v", err)
	}
	if inj.Injected() == 0 {
		t.Fatal("schedule injected no faults; the parallel chaos run tested nothing")
	}
	got := renderTables(t, faulted)
	for name, wb := range want {
		if !bytes.Equal(got[name], wb) {
			t.Errorf("%s: faulted parallel table differs from fault-free serial table", name)
		}
	}
}
