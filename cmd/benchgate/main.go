// Command benchgate guards the simulation engine's performance envelope in
// CI: it runs the reference benchmark (exec.BenchmarkRun — one class-S SP
// measurement on 8×8 cores) with -benchmem and fails if the best observed
// ns/op or allocs/op regresses more than an allowed factor over the
// recorded reference in BENCH_3.json. The time gate is deliberately loose
// (default 25 %) so shared-runner noise passes; the allocation gate is
// tight (default 10 %) because allocation counts are deterministic — a
// breach there means instrumentation or a refactor started allocating on
// the hot path. A missing reference file, an unknown reference key or an
// empty benchmark run all fail loudly instead of passing vacuously.
//
// Usage (CI):
//
//	go run ./cmd/benchgate -ref BENCH_3.json -key exec_BenchmarkRunSequential_SP_classS_8x8
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchgate: ")
	var (
		ref         = flag.String("ref", "BENCH_3.json", "reference benchmark record")
		key         = flag.String("key", "exec_BenchmarkRunSequential_SP_classS_8x8", "reference entry under \"after\"")
		bench       = flag.String("bench", "BenchmarkRun$", "benchmark pattern to run")
		pkg         = flag.String("pkg", "./internal/exec", "package holding the benchmark")
		factor      = flag.Float64("factor", 1.25, "allowed ns/op regression factor over the reference")
		allocFactor = flag.Float64("allocfactor", 1.10, "allowed allocs/op regression factor (0 = skip the allocation gate)")
		count       = flag.Int("count", 3, "benchmark repetitions (best run is compared)")
		benchtime   = flag.String("benchtime", "5x", "go test -benchtime value")
	)
	flag.Parse()

	raw, err := os.ReadFile(*ref)
	if err != nil {
		log.Fatalf("reference record unreadable (%v) — benchgate cannot gate without a baseline; "+
			"record one or point -ref at it", err)
	}
	refE, err := refBench(raw, *key)
	if err != nil {
		log.Fatalf("%s: %v", *ref, err)
	}

	args := []string{"test", "-run=NONE", "-bench", *bench, "-benchmem",
		"-benchtime", *benchtime, "-count", fmt.Sprint(*count), *pkg}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		log.Fatalf("go %v: %v", args, err)
	}
	bestNs, runs, err := minUnit(string(out), "Benchmark", "ns/op")
	if err != nil {
		log.Fatalf("parsing benchmark output: %v\n%s", err, out)
	}

	nsLimit := refE.NsOp * *factor
	fmt.Printf("time   reference %.0f ns/op, best of %d runs %.0f ns/op, limit %.0f ns/op (%.2fx)\n",
		refE.NsOp, runs, bestNs, nsLimit, bestNs/refE.NsOp)
	failed := false
	if bestNs > nsLimit {
		log.Printf("TIME REGRESSION: %.0f ns/op exceeds %.0f ns/op (%.0f × %.2f)",
			bestNs, nsLimit, refE.NsOp, *factor)
		failed = true
	}

	if *allocFactor > 0 {
		if refE.AllocsOp == nil {
			log.Fatalf("%s: entry %q records no allocs_op — re-record the baseline with -benchmem "+
				"or pass -allocfactor 0 to skip the allocation gate", *ref, *key)
		}
		bestAllocs, _, err := minUnit(string(out), "Benchmark", "allocs/op")
		if err != nil {
			log.Fatalf("parsing benchmark output: %v\n%s", err, out)
		}
		// A zero-alloc reference gates at zero: the benchmark must stay
		// allocation-free.
		allocLimit := *refE.AllocsOp * *allocFactor
		fmt.Printf("allocs reference %.0f allocs/op, best %.0f allocs/op, limit %.0f allocs/op\n",
			*refE.AllocsOp, bestAllocs, allocLimit)
		if bestAllocs > allocLimit {
			log.Printf("ALLOC REGRESSION: %.0f allocs/op exceeds %.0f allocs/op (%.0f × %.2f)",
				bestAllocs, allocLimit, *refE.AllocsOp, *allocFactor)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("ok")
}
