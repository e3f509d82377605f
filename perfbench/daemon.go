package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"ageguard/internal/aging"
	"ageguard/internal/char"
	"ageguard/internal/core"
	"ageguard/internal/obs"
	"ageguard/internal/serve"
)

// flowFor is ageguardd's flow without -quick: the paper's 7x7 grid
// (char.DefaultConfig), a 10-year lifetime, caching under cacheDir.
func flowFor(cacheDir string) core.Flow {
	cfg := char.DefaultConfig()
	cfg.CacheDir = cacheDir
	return core.New(core.WithCharConfig(cfg), core.WithLifetime(10))
}

// daemon is one in-process ageguardd on a loopback listener, with
// ageguardd's default configuration: the zero serve.Config plus the
// warm-start scan its -warm-start flag enables by default.
type daemon struct {
	srv  *serve.Server
	reg  *obs.Registry
	base string
	tr   *http.Transport
	stop context.CancelFunc
	done chan error
}

// readyTimeout bounds the wait for the warm-start scan; the pause
// between readiness probes doubles from readyPauseMin to readyPauseMax.
const (
	readyTimeout  = time.Minute
	readyPauseMin = 20 * time.Microsecond
	readyPauseMax = 2 * time.Millisecond
)

func boot(cacheDir string) (*daemon, error) {
	reg := obs.NewRegistry()
	srv := serve.New(serve.Config{Flow: flowFor(cacheDir), WarmStart: true}, reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	ctx, stop := context.WithCancel(context.Background())
	d := &daemon{
		srv:  srv,
		reg:  reg,
		base: "http://" + ln.Addr().String(),
		tr:   &http.Transport{MaxIdleConnsPerHost: 8},
		stop: stop,
		done: make(chan error, 1),
	}
	go func() { d.done <- srv.Serve(ctx, ln) }()
	if err := d.waitReady(); err != nil {
		d.shutdown()
		return nil, err
	}
	return d, nil
}

// waitReady returns once the daemon reports ready. The daemon tells
// readiness only through GET /readyz, so waitReady asks its handler
// in-process, which takes microseconds and no network round trip, and
// pauses between the probes. Set-up is measured in CPU time: a pause
// costs next to none of it, while a spinning wait would add a busy core.
func (d *daemon) waitReady() error {
	h := d.srv.Handler()
	deadline := time.Now().Add(readyTimeout)
	for pause := readyPauseMin; ; pause = min(2*pause, readyPauseMax) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		if rec.Code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("daemon not ready within " + readyTimeout.String())
		}
		time.Sleep(pause)
	}
}

// shutdown drains the daemon and waits for it to exit.
func (d *daemon) shutdown() error {
	d.stop()
	err := <-d.done
	d.tr.CloseIdleConnections()
	return err
}

// preparedScenarios are the libraries of the prepared disk cache: every
// scenario warm-mix and miss-sweep query.
var preparedScenarios = []aging.Scenario{
	aging.Fresh(),
	aging.WorstCase(10),
	aging.BalanceCase(10),
	aging.WorstCase(10).WithLambda(0.25, 0.75),
}

// prepare fills dir with the disk cache warm-mix and miss-sweep start
// from: the four libraries, the eight single-axis perturbed libraries
// behind the fresh and worst-case Monte Carlo sensitivities, and the
// traditionally synthesized netlists of the three circuits.
func prepare(dir string) error {
	ctx := context.Background()
	fl := flowFor(dir)
	for _, sc := range preparedScenarios {
		if _, err := fl.Library(ctx, sc); err != nil {
			return err
		}
	}
	for _, sc := range preparedScenarios[:2] {
		if _, err := fl.Char.Sensitivities(ctx, sc); err != nil {
			return err
		}
	}
	for _, c := range circuits {
		if _, err := fl.SynthesizeTraditional(ctx, c); err != nil {
			return err
		}
	}
	return nil
}

// preparedCache returns the prepared disk cache of this checkout's
// sources, building it first when it does not exist yet. It lives under
// buildDir keyed by a hash of every Go source and module file, so the
// code under test always builds its own and a cache never outlives the
// code that wrote it. The build runs in a child process, so neither its
// time nor its memory shows in the measuring process.
func preparedCache(root, buildDir string) (string, error) {
	sum, err := sourceHash(root)
	if err != nil {
		return "", err
	}
	dir := filepath.Join(buildDir, "prepared", sum[:16])
	if _, err := os.Stat(filepath.Join(dir, "complete")); err == nil {
		return dir, nil
	}
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return "", err
	}
	tmp, err := os.MkdirTemp(filepath.Dir(dir), "building-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp)
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	fmt.Fprintf(os.Stderr, "perfbench: preparing the warm disk cache in %s\n", dir)
	cmd := exec.Command(self, "-prepare", tmp)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("preparing the disk cache: %w", err)
	}
	if err := os.WriteFile(filepath.Join(tmp, "complete"), nil, 0o644); err != nil {
		return "", err
	}
	// dir only ever appears complete, by this rename; if another run's
	// rename won, its cache serves.
	if err := os.Rename(tmp, dir); err != nil {
		if _, serr := os.Stat(filepath.Join(dir, "complete")); serr != nil {
			return "", err
		}
	}
	return dir, nil
}

// sourceHash fingerprints the checkout's Go sources and module files.
func sourceHash(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil)), err
}

// copyDir copies the regular files of src into a new directory dst, so
// a run's daemons never touch the shared prepared cache.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
