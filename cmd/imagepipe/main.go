// Command imagepipe runs the paper's system-level study (Fig. 6c / 7):
// an image is encoded and decoded through gate-level simulations of the
// synthesized DCT and IDCT circuits under different aging scenarios, with
// no guardband, and the resulting images and PSNR values are reported.
//
// Usage:
//
//	imagepipe -out out -size 64
//	imagepipe -out out -in photo.pgm
//	imagepipe -out out -metrics -trace-out run.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ageguard/internal/atomicfile"
	"ageguard/internal/cli"
	"ageguard/internal/core"
	"ageguard/internal/image"
	"ageguard/internal/obs"
)

func main() {
	var (
		out  = flag.String("out", "out", "output directory for PGM images")
		size = flag.Int("size", 64, "synthetic test image size (multiple of 8)")
		in   = flag.String("in", "", "input PGM image (overrides -size)")
	)
	c := cli.Register("imagepipe", flag.CommandLine)
	flag.Parse()

	c.Main(context.Background(), func(ctx context.Context) error {
		return run(ctx, *out, *size, *in, c.Retries, c.Strict)
	})
}

func run(ctx context.Context, out string, size int, in string, retries int, strict bool) error {
	ctx, sp := obs.StartSpan(ctx, "imagepipe.run")
	defer sp.End()
	var img *image.Gray
	if in != "" {
		fh, err := os.Open(in)
		if err != nil {
			return err
		}
		var rerr error
		img, rerr = image.ReadPGM(fh)
		fh.Close()
		if rerr != nil {
			return rerr
		}
	} else {
		img = image.TestImage(size, size)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	if err := save(filepath.Join(out, "original.pgm"), img); err != nil {
		return err
	}

	f := core.New(core.WithRetries(retries), core.WithStrict(strict))
	cases := core.StandardImageCases()
	fmt.Println("running DCT-IDCT gate-level simulations (this synthesizes and")
	fmt.Println("characterizes on first run; results are cached under .libcache)")
	results, err := f.ImageStudy(ctx, img, cases)
	if err != nil {
		return err
	}
	fmt.Printf("\n%-22s %10s\n", "scenario", "PSNR [dB]")
	for _, r := range results {
		path := filepath.Join(out, r.Label+".pgm")
		if err := save(path, r.Out); err != nil {
			return err
		}
		fmt.Printf("%-22s %10.2f   -> %s\n", r.Label, r.PSNR, path)
	}
	fmt.Println("\n30 dB is the paper's threshold of acceptable quality.")
	return nil
}

func save(path string, g *image.Gray) error {
	return atomicfile.Write(path, func(w io.Writer) error { return image.WritePGM(w, g) })
}
