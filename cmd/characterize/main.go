// Command characterize runs the full measurement campaign for one program
// on one system — baseline executions across (c, f), the mpiP profile,
// NetPIPE and the power micro-benchmarks — and prints the analytical
// model's inputs (paper Sec. III.E).
//
// Usage:
//
//	characterize -system arm -program CP -seed 42
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"hybridperf/internal/characterize"
	"hybridperf/internal/core"
	"hybridperf/internal/machine"
	"hybridperf/internal/textplot"
	"hybridperf/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("characterize: ")
	var (
		system  = flag.String("system", "xeon", "cluster profile: xeon or arm")
		program = flag.String("program", "SP", "program: LU, SP, BT, CP or LB")
		seed    = flag.Int64("seed", 42, "measurement seed")
		workers = flag.Int("workers", 0, "parallel simulations (0 = default)")
		outFile = flag.String("o", "", "write model inputs as JSON to this file")
		showMx  = flag.Bool("metrics", false, "print aggregate engine counters over the campaign's runs")
	)
	flag.Parse()

	prof, err := machine.ByName(*system)
	if err != nil {
		log.Fatal(err)
	}
	spec, err := workload.ByName(*program)
	if err != nil {
		log.Fatal(err)
	}
	sum, err := characterize.Run(prof, spec, characterize.Options{Seed: *seed, Workers: *workers, Metrics: *showMx})
	if err != nil {
		log.Fatal(err)
	}
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := core.SaveInputs(f, sum.Inputs); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote model inputs to %s\n", *outFile)
	}

	w := os.Stdout
	fmt.Fprintf(w, "Characterisation of %s on %s (baseline: class S, %d iterations)\n\n",
		spec.Name, prof.Name, sum.Inputs.BaselineIters)

	// Baseline counter table, ordered by (c, f).
	keys := make([]machine.CF, 0, len(sum.Baseline))
	for k := range sum.Baseline {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Cores != keys[j].Cores {
			return keys[i].Cores < keys[j].Cores
		}
		return keys[i].Freq < keys[j].Freq
	})
	var rows [][]string
	for _, k := range keys {
		bp := sum.Baseline[k]
		rows = append(rows, []string{
			fmt.Sprintf("%d", k.Cores),
			fmt.Sprintf("%.1f", k.Freq/1e9),
			fmt.Sprintf("%.4g", bp.W),
			fmt.Sprintf("%.4g", bp.B),
			fmt.Sprintf("%.4g", bp.M),
			fmt.Sprintf("%.3f", bp.U),
		})
	}
	fmt.Fprintln(w, textplot.Table([]string{"c", "f[GHz]", "ws", "bs", "ms", "Us"}, rows))

	fmt.Fprintf(w, "network    y(s) = %.1f us + s / %.2f MB/s (NetPIPE fit over %d sizes)\n",
		sum.Inputs.Net.Overhead*1e6, sum.Inputs.Net.Peak/1e6, len(sum.NetPipe))
	if sum.MpiP.Ranks > 0 {
		fmt.Fprintf(w, "%s\n", sum.MpiP)
	}
	fmt.Fprintf(w, "power      Psys,idle=%.2f W  Pmem=%.2f W (JEDEC)  Pnet=%.2f W\n",
		sum.Inputs.Power.PSysIdle, sum.Inputs.Power.PMem, sum.Inputs.Power.PNet)
	freqs := append([]float64(nil), prof.Frequencies...)
	sort.Float64s(freqs)
	for _, f := range freqs {
		fmt.Fprintf(w, "  f=%.1f GHz: Pcore,act=%.3f W  Pcore,stall=%.3f W\n",
			f/1e9, sum.Inputs.Power.PAct[f], sum.Inputs.Power.PStall[f])
	}
	if *showMx {
		fmt.Fprintf(w, "\nengine metrics over %d characterisation runs\n%s", sum.MetricsRuns, sum.Metrics)
	}
}
