// Command stareport runs static timing analysis on a benchmark circuit
// under a chosen aging scenario and prints a PrimeTime-style report:
// the critical path with per-stage arc delays and slews, the endpoint
// slack histogram, and optional Verilog/SDF/Liberty artifact dumps for
// external tools.
//
// Usage:
//
//	stareport -circuit FFT -scenario worst -years 10
//	stareport -circuit DSP -sdf dsp.sdf -verilog dsp.v -lib aged.lib
//	stareport -circuit FFT -metrics -trace-out run.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"sort"

	"ageguard/internal/aging"
	"ageguard/internal/atomicfile"
	"ageguard/internal/cli"
	"ageguard/internal/core"
	"ageguard/internal/liberty"
	"ageguard/internal/netlist"
	"ageguard/internal/obs"
	"ageguard/internal/sta"
	"ageguard/internal/units"
)

func main() {
	var (
		circuit  = flag.String("circuit", "FFT", "benchmark circuit")
		scenario = flag.String("scenario", "worst", "aging scenario: fresh, worst, balance")
		years    = flag.Float64("years", 10, "lifetime in years")
		sdfOut   = flag.String("sdf", "", "write SDF delay annotation to this file")
		vOut     = flag.String("verilog", "", "write structural Verilog to this file")
		libOut   = flag.String("lib", "", "write the scenario's Liberty library to this file")
	)
	c := cli.Register("stareport", flag.CommandLine)
	flag.Parse()

	c.Main(context.Background(), func(ctx context.Context) error {
		return run(ctx, *circuit, *scenario, *years, *sdfOut, *vOut, *libOut, c.Retries, c.Strict)
	})
}

func run(ctx context.Context, circuit, scenario string, years float64, sdfOut, vOut, libOut string, retries int, strict bool) error {
	ctx, sp := obs.StartSpan(ctx, "stareport.run")
	defer sp.End()
	f := core.New(core.WithLifetime(years), core.WithRetries(retries), core.WithStrict(strict))
	var s aging.Scenario
	switch scenario {
	case "fresh":
		s = aging.Fresh()
	case "worst":
		s = aging.WorstCase(years)
	case "balance":
		s = aging.BalanceCase(years)
	default:
		return fmt.Errorf("unknown scenario %q", scenario)
	}
	lib, err := f.Library(ctx, s)
	if err != nil {
		return err
	}
	nl, err := f.SynthesizeTraditional(ctx, circuit)
	if err != nil {
		return err
	}
	res, err := sta.Analyze(ctx, nl, lib, f.STA)
	if err != nil {
		return err
	}

	fmt.Printf("design %s under %s: critical path %s (f = %.2f GHz)\n\n",
		circuit, s, units.PsString(res.CP), 1e-9/res.CP)
	fmt.Printf("startpoint: %s\nendpoint:   %s (%v)\n\n",
		res.Worst.Launch, res.Worst.Endpoint, res.Worst.EndEdge)
	fmt.Printf("%-24s %-14s %5s %10s %12s\n", "instance", "cell", "edge", "delay", "arrival")
	for _, st := range res.Worst.Steps {
		fmt.Printf("%-24s %-14s %5v %10s %12s\n",
			st.Inst, st.Cell, st.OutEdge, units.PsString(st.Delay), units.PsString(st.Arrival))
	}
	if res.Worst.Setup > 0 {
		fmt.Printf("%-24s %-14s %5s %10s %12s\n", "(setup)", "", "",
			units.PsString(res.Worst.Setup), units.PsString(res.Worst.Delay))
	}

	fmt.Println("\nendpoint slack distribution:")
	printSlackHisto(nl, lib, res)

	if vOut != "" {
		if err := writeFile(vOut, func(w io.Writer) error { return netlist.WriteVerilog(w, nl) }); err != nil {
			return err
		}
	}
	if sdfOut != "" {
		if err := writeFile(sdfOut, func(w io.Writer) error { return sta.WriteSDF(w, nl, lib, res, f.STA) }); err != nil {
			return err
		}
	}
	if libOut != "" {
		if err := writeFile(libOut, func(w io.Writer) error { return liberty.WriteLiberty(w, lib) }); err != nil {
			return err
		}
	}
	return nil
}

func printSlackHisto(nl *netlist.Netlist, lib *liberty.Library, res *sta.Result) {
	var slacks []float64
	for _, in := range nl.Insts {
		ct := lib.MustCell(in.Cell)
		if ct.Seq {
			if s, ok := res.Slack[in.Pins[ct.Data]]; ok {
				slacks = append(slacks, s)
			}
		}
	}
	for _, po := range nl.Outputs {
		if s, ok := res.Slack[po]; ok {
			slacks = append(slacks, s)
		}
	}
	if len(slacks) == 0 {
		return
	}
	sort.Float64s(slacks)
	bins := 8
	lo, hi := slacks[0], slacks[len(slacks)-1]
	if hi == lo {
		hi = lo + 1e-12
	}
	counts := make([]int, bins)
	for _, s := range slacks {
		i := int(float64(bins) * (s - lo) / (hi - lo))
		if i >= bins {
			i = bins - 1
		}
		counts[i]++
	}
	for i, c := range counts {
		a := lo + float64(i)*(hi-lo)/float64(bins)
		b := lo + float64(i+1)*(hi-lo)/float64(bins)
		fmt.Printf("  [%9s, %9s) %5d endpoints\n", units.PsString(a), units.PsString(b), c)
	}
}

func writeFile(path string, fn func(io.Writer) error) error {
	if err := atomicfile.Write(path, fn); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
