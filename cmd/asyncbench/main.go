// Command asyncbench regenerates the paper's tables and figures on the
// simulated cluster. The repository's performance benchmark is a separate
// program: go run ./benchmark (see benchmark/README.md).
//
// Usage:
//
//	asyncbench -exp fig3 -scale small
//	asyncbench -exp all -scale tiny
//	asyncbench -exp fig3 -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//
// Experiments: table2, fig2..fig8, table3, ablation-broadcast,
// ablation-localreduce, ablation-barrier, ablation-staleness,
// ext-sspsweep, ext-staleness-dist, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (or 'all'; see package doc)")
		scale   = flag.String("scale", "small", "dataset scale: tiny|small|full")
		seed    = flag.Int64("seed", 42, "experiment seed")
		rounds  = flag.Int("rounds", 0, "sync round budget (0 = scale default)")
		minTask = flag.Duration("mintask", 2*time.Millisecond, "per-task compute floor")
		quiet   = flag.Bool("quiet", false, "suppress progress logging")
		csvDir  = flag.String("csvdir", "", "also write figure series as CSV files into this directory")

		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Parse()
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatalf("%v", err)
	}
	defer stopProfiles()
	o := experiments.Options{
		Seed:        *seed,
		SyncUpdates: *rounds,
		MinTask:     *minTask,
		CSVDir:      *csvDir,
	}
	if !*quiet {
		o.Log = os.Stderr
	}
	sc, err := dataset.ParseScale(*scale)
	if err != nil {
		fatalf("%v", err)
	}
	o.Scale = sc
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		fmt.Printf("==================== %s ====================\n", id)
		if err := experiments.Run(o, id, os.Stdout); err != nil {
			fatalf("%s: %v", id, err)
		}
	}
	stopProfiles()
}

// startProfiles arms the pprof outputs named by -cpuprofile/-memprofile so
// a slow experiment can be diagnosed from the run that showed it. The
// returned stop is idempotent: it ends the CPU profile and writes the heap
// snapshot.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	stopped := false
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("start cpu profile: %w", err)
		}
		stop = func() {
			pprof.StopCPUProfile()
			_ = f.Close()
		}
	}
	cpuStop := stop
	return func() {
		if stopped {
			return
		}
		stopped = true
		if cpuStop != nil {
			cpuStop()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "asyncbench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile is stable
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "asyncbench: memprofile: %v\n", err)
			}
		}
	}, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "asyncbench: "+format+"\n", args...)
	os.Exit(1)
}
