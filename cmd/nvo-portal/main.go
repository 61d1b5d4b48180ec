// Command nvo-portal runs the complete NVO prototype locally: it generates
// the synthetic sky, wires the simulated archives, replica/transformation
// catalogs, GridFTP fabric and Condor pools behind the Pegasus compute web
// service, and serves the user portal's HTML interface — the whole Figure 5
// deployment in one process.
//
//	nvo-portal -addr :8080 -clusters 3 -galaxies 80
//
// Then browse http://localhost:8080/ and pick a cluster.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"

	"repro/internal/condor"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/skysim"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address for the portal UI")
	nClusters := flag.Int("clusters", 2, "number of synthetic clusters (max 8)")
	galaxies := flag.Int("galaxies", 0, "override galaxies per cluster (0 = paper counts)")
	seed := flag.Int64("seed", 1, "simulation seed")
	failureRate := flag.Float64("failure-rate", 0, "injected transient failure rate of every Condor task (a condor.exec fault rule)")
	discover := flag.Bool("discover", false, "portal discovers services from the resource registry")
	batch := flag.Bool("batch", false, "compute service uses the batched cutout interface")
	pageSize := flag.Int("page-size", 0, "paged archive queries: rows per page (0 = unpaged)")
	waveSize := flag.Int("wave-size", 0, "survey-scale wave execution: galaxies per wave (0 = monolithic)")
	priority := flag.Int("priority", 0, "default fabric scheduling class of portal submissions")
	flag.Parse()

	if *nClusters < 1 {
		*nClusters = 1
	}
	if *nClusters > 8 {
		*nClusters = 8
	}
	specs := skysim.StandardClusters()[:*nClusters]
	for i := range specs {
		specs[i].Seed += *seed
		if *galaxies > 0 {
			specs[i].NumGalaxies = *galaxies
		}
	}

	// One seeded injector per workflow leg, so concurrent requests do not
	// perturb each other's fault schedules.
	var faultsFor func(tenant, cluster string) *faults.Injector
	if *failureRate > 0 {
		faultsFor = func(_, _ string) *faults.Injector {
			return faults.New(*seed, faults.Rule{Name: condor.OpExec, Kind: faults.KindTransient, Probability: *failureRate})
		}
	}

	tb, err := core.NewTestbed(core.Config{
		ClusterSpecs:         specs,
		Seed:                 *seed,
		FaultsFor:            faultsFor,
		CacheImageSearch:     true,
		UseRegistryDiscovery: *discover,
		BatchFetch:           *batch,
		PageSize:             *pageSize,
		WaveSize:             *waveSize,
		Priority:             *priority,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvo-portal:", err)
		os.Exit(1)
	}

	fmt.Printf("NVO Galaxy Morphology portal on http://localhost%s/\n", *addr)
	fmt.Printf("clusters: ")
	for i, c := range tb.Clusters {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("%s (%d galaxies)", c.Name, len(c.Galaxies))
	}
	fmt.Println()
	fmt.Println("backing services (in-process):", core.HostMAST+",", core.HostNED+",",
		core.HostHEASARC+",", core.HostCompute+",", core.HostRLS)

	if err := http.ListenAndServe(*addr, tb.Portal.Handler()); err != nil {
		fmt.Fprintln(os.Stderr, "nvo-portal:", err)
		os.Exit(1)
	}
}
