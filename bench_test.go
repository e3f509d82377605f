// Benchmark harness regenerating every figure of the paper's evaluation.
//
// Each BenchmarkFigN_* prints the figure's data series once (stdout) and
// then measures a representative kernel of that experiment per iteration,
// so the full suite remains usable with the default -benchtime. Heavy
// artifacts (characterized libraries, synthesized netlists) are cached
// under .libcache/ and shared with the tests; the first run is slow.
//
// Regenerate everything with:
//
//	go test -bench . -benchmem
package main

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"ageguard/internal/aging"
	"ageguard/internal/char"
	"ageguard/internal/core"
	"ageguard/internal/image"
	"ageguard/internal/liberty"
	"ageguard/internal/netlist"
	"ageguard/internal/sta"
	"ageguard/internal/units"
)

var flow = core.Default()

// once guards each experiment's expensive setup across bench iterations.
type onceResult[T any] struct {
	once sync.Once
	v    T
	err  error
}

func (o *onceResult[T]) get(b *testing.B, f func() (T, error)) T {
	o.once.Do(func() { o.v, o.err = f() })
	if o.err != nil {
		b.Fatal(o.err)
	}
	return o.v
}

// ---------------------------------------------------------------------------
// Fig. 1: aging impact surfaces of NAND and NOR over operating conditions.

var fig1NAND, fig1NOR onceResult[*core.Surface]

func BenchmarkFig1_NANDSurface(b *testing.B) {
	s := fig1NAND.get(b, func() (*core.Surface, error) {
		s, err := flow.AgingSurface(context.Background(), "NAND2_X1", liberty.Rise)
		if err == nil {
			fmt.Println("\n=== Fig 1(a) ===")
			fmt.Print(s.Format())
		}
		return s, err
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Kernel: one surface cell recomputation via table lookups.
		_ = s.DeltaPct[len(s.Slews)-1][0]
	}
}

func BenchmarkFig1_NORSurface(b *testing.B) {
	s := fig1NOR.get(b, func() (*core.Surface, error) {
		s, err := flow.AgingSurface(context.Background(), "NOR2_X1", liberty.Fall)
		if err == nil {
			fmt.Println("\n=== Fig 1(b) ===")
			fmt.Print(s.Format())
		}
		return s, err
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.DeltaPct[len(s.Slews)-1][0]
	}
}

// ---------------------------------------------------------------------------
// Fig. 2: delay-change distributions, single OPC vs multiple OPCs.

var fig2 onceResult[*core.Distribution]

func BenchmarkFig2_Histograms(b *testing.B) {
	d := fig2.get(b, func() (*core.Distribution, error) {
		d, err := flow.DelayChangeDistribution(context.Background())
		if err != nil {
			return nil, err
		}
		lo, hi := d.Range()
		fmt.Println("\n=== Fig 2 ===")
		fmt.Printf("single OPC: %d observations, improved %.1f%%\n",
			len(d.Single), d.ImprovedFractionSingle()*100)
		printHisto("single", d.Single, 0, 20, 10)
		fmt.Printf("multiple OPCs: %d observations, range [%.0f%%, %.0f%%], improved %.1f%%\n",
			len(d.Multi), lo, hi, d.ImprovedFractionMulti()*100)
		printHisto("multi", d.Multi, -60, 400, 23)
		return d, nil
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Histogram(d.Multi, -60, 400, 23)
	}
}

func printHisto(label string, v []float64, lo, hi float64, bins int) {
	h := core.Histogram(v, lo, hi, bins)
	w := (hi - lo) / float64(bins)
	for i, n := range h {
		if n == 0 {
			continue
		}
		fmt.Printf("  %s [%+6.0f%%, %+6.0f%%): %d\n", label, lo+float64(i)*w, lo+float64(i+1)*w, n)
	}
}

// ---------------------------------------------------------------------------
// Fig. 3: critical-path switching under aging.

var fig3 onceResult[*core.Fig3Report]

func BenchmarkFig3_PathSwitch(b *testing.B) {
	r := fig3.get(b, func() (*core.Fig3Report, error) {
		r, err := flow.Fig3PathSwitch(context.Background())
		if err == nil {
			fmt.Println("\n=== Fig 3 ===")
			fmt.Print(r.Format())
		}
		return r, err
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Path1Aged - r.Path2Aged
	}
}

// ---------------------------------------------------------------------------
// Fig. 5: guardband estimation comparisons across the benchmark set.

var fig5a, fig5b, fig5c onceResult[*core.Fig5Report]

func benchFig5(b *testing.B, o *onceResult[*core.Fig5Report], tag string,
	run func(context.Context, []string) (*core.Fig5Report, error)) {
	r := o.get(b, func() (*core.Fig5Report, error) {
		r, err := run(context.Background(), core.BenchmarkCircuits())
		if err == nil {
			fmt.Printf("\n=== Fig 5(%s) ===\n", tag)
			fmt.Print(r.Format())
		}
		return r, err
	})
	nl := kernelNetlist.get(b, loadKernelNetlist)
	lib := kernelLib.get(b, func() (*liberty.Library, error) { return flow.FreshLibrary(context.Background()) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Kernel: one full STA of a benchmark netlist (the dominant
		// per-experiment operation).
		if _, err := sta.Analyze(context.Background(), nl, lib, sta.Config{}); err != nil {
			b.Fatal(err)
		}
	}
	_ = r
}

var (
	kernelNetlist onceResult[*netlist.Netlist]
	kernelLib     onceResult[*liberty.Library]
)

func loadKernelNetlist() (*netlist.Netlist, error) {
	return flow.SynthesizeTraditional(context.Background(), "RISC-5P")
}

func BenchmarkFig5a_MuNeglect(b *testing.B) { benchFig5(b, &fig5a, "a", flow.Fig5a) }
func BenchmarkFig5b_SingleOPC(b *testing.B) { benchFig5(b, &fig5b, "b", flow.Fig5b) }
func BenchmarkFig5c_CPSwitch(b *testing.B)  { benchFig5(b, &fig5c, "c", flow.Fig5c) }

// ---------------------------------------------------------------------------
// Fig. 6a/b: guardband containment and area overhead.

var fig6ab onceResult[*core.ContainmentReport]

func BenchmarkFig6a_Containment(b *testing.B) {
	r := fig6ab.get(b, func() (*core.ContainmentReport, error) {
		r, err := flow.ContainmentAll(context.Background(), core.BenchmarkCircuits())
		if err == nil {
			fmt.Println("\n=== Fig 6(a)+(b) ===")
			fmt.Print(r.Format())
		}
		return r, err
	})
	nl := kernelNetlist.get(b, loadKernelNetlist)
	lib := kernelLib.get(b, func() (*liberty.Library, error) { return flow.FreshLibrary(context.Background()) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sta.Analyze(context.Background(), nl, lib, sta.Config{}); err != nil {
			b.Fatal(err)
		}
	}
	_ = r
}

func BenchmarkFig6b_Area(b *testing.B) {
	r := fig6ab.get(b, func() (*core.ContainmentReport, error) {
		r, err := flow.ContainmentAll(context.Background(), core.BenchmarkCircuits())
		if err == nil {
			fmt.Println("\n=== Fig 6(a)+(b) ===")
			fmt.Print(r.Format())
		}
		return r, err
	})
	nl := kernelNetlist.get(b, loadKernelNetlist)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Area(nl); err != nil {
			b.Fatal(err)
		}
	}
	fig6bPrint.Do(func() {
		fmt.Printf("Fig6b avg area overhead: %+.2f%%\n", r.AvgAreaOvhPct)
	})
}

var fig6bPrint sync.Once

// ---------------------------------------------------------------------------
// Fig. 6c / Fig. 7: the system-level DCT-IDCT image study.

const benchImageSize = 48

var fig6c onceResult[[]core.ImageOutcome]

func runImageStudy() ([]core.ImageOutcome, error) {
	img := image.TestImage(benchImageSize, benchImageSize)
	out, err := flow.ImageStudy(context.Background(), img, core.StandardImageCases())
	if err != nil {
		return nil, err
	}
	fmt.Println("\n=== Fig 6(c) ===")
	fmt.Printf("%-22s %10s\n", "scenario", "PSNR [dB]")
	for _, r := range out {
		fmt.Printf("%-22s %10.2f\n", r.Label, r.PSNR)
	}
	return out, nil
}

func BenchmarkFig6c_PSNR(b *testing.B) {
	out := fig6c.get(b, runImageStudy)
	ref := image.TestImage(benchImageSize, benchImageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range out {
			_ = image.PSNR(ref, r.Out)
		}
	}
}

func BenchmarkFig7_Images(b *testing.B) {
	out := fig6c.get(b, runImageStudy)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Kernel: the golden software chain on the same image (the
		// reference each hardware simulation is compared against).
		img := image.TestImage(benchImageSize, benchImageSize)
		_ = image.RunChain(img, image.GoldenDCT(), image.GoldenIDCT())
	}
	fig7Print.Do(func() {
		fmt.Println("\n=== Fig 7 === (use cmd/imagepipe to write the PGM files)")
		for _, r := range out {
			qual := "high quality"
			if r.PSNR < 30 {
				qual = "below 30dB threshold"
			}
			fmt.Printf("%-22s %6.2f dB  %s\n", r.Label, r.PSNR, qual)
		}
	})
}

var fig7Print sync.Once

// ---------------------------------------------------------------------------
// Library-creation microbenchmarks (the cost of the Fig. 4a flow).

func BenchmarkCharacterizeCell(b *testing.B) {
	cfg := flow.Char
	cfg.CacheDir = "" // force real simulation work
	cfg.Cells = []string{"NAND2_X1"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Characterize(context.Background(), aging.WorstCase(10)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCharacterizeLibrary measures one library build (8 representative
// cells — unate, binate, multi-stage and sequential — on the reduced 3x3
// OPC grid) with the given worker count. The Serial/Parallel pair is the
// PR's headline speedup comparison; on an N-core machine the parallel
// variant should approach N x (the sweep is embarrassingly parallel, the
// per-point simulations are the whole cost).
func benchCharacterizeLibrary(b *testing.B, parallelism int) {
	cfg := char.TestConfig()
	cfg.CacheDir = "" // force real simulation work
	cfg.Parallelism = parallelism
	cfg.Cells = []string{
		"INV_X1", "NAND2_X1", "NOR2_X1", "AND2_X1",
		"OR2_X1", "XOR2_X1", "MUX2_X1", "DFF_X1",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Characterize(context.Background(), aging.WorstCase(10)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCharacterizeLibrarySerial(b *testing.B)   { benchCharacterizeLibrary(b, 1) }
func BenchmarkCharacterizeLibraryParallel(b *testing.B) { benchCharacterizeLibrary(b, 0) }

var dctNetlist onceResult[*netlist.Netlist]

func BenchmarkSTALargeNetlist(b *testing.B) {
	nl := dctNetlist.get(b, func() (*netlist.Netlist, error) {
		return flow.SynthesizeTraditional(context.Background(), "DCT")
	})
	lib := kernelLib.get(b, func() (*liberty.Library, error) { return flow.FreshLibrary(context.Background()) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sta.Analyze(context.Background(), nl, lib, sta.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if res.CP < 100*units.Ps {
			b.Fatal("implausible CP")
		}
	}
}
