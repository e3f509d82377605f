package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the bounded figures of an untraced pass; every
// workload reports all of them. Wall-clock latency and throughput are
// printed beside them (wallFigures) but not bounded: on a shared host
// they move with the CPU time other guests take (see README.md), while
// the CPU a request costs moves far less.
func endToEnd(o *outcome) map[string]metric {
	n := float64(len(o.res.allLatencies()))
	return map[string]metric{
		"setup_s":        {median(o.setups), "s"},
		"cpu_ms_per_req": {ratio(float64(o.cpu)/float64(time.Millisecond), n), "ms"},
		"live_heap_mb":   {o.heapMB, "MB"},
		"peak_rss_mb":    {peakRSSMB(), "MB"},
	}
}

// wallFigures are the wall-clock figures of every workload: median
// latency over all timed requests and completed requests per second.
func wallFigures(o *outcome) string {
	lat := sortedCopy(o.res.allLatencies())
	p50, _ := percentile(lat, 0.5)
	return fmt.Sprintf("  %-16s %14.6f %-4s n=%d\n  %-16s %14.6f %-4s n=%d\n",
		"latency_p50_ms", p50, "ms", len(lat),
		"throughput_rps", ratio(float64(len(lat)), o.wall.Seconds()), "1/s", len(lat))
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// classFigures renders each latency class with its sample count, median
// and the highest of p90/p99/p99.9 that has minBeyond samples beyond it.
func classFigures(o *outcome) string {
	var b strings.Builder
	for _, class := range sortedKeys(o.res.lat) {
		s := sortedCopy(o.res.lat[class])
		p50, _ := percentile(s, 0.5)
		fmt.Fprintf(&b, "  class %-12s n=%-7d p50=%.4f ms", class, len(s), p50)
		for _, p := range []float64{0.999, 0.99, 0.9} {
			if v, ok := percentile(s, p); ok {
				fmt.Fprintf(&b, "  p%g=%.4f ms", 100*p, v)
				break
			}
		}
		fmt.Fprintf(&b, "  mean=%.4f ms\n", mean(s))
	}
	return b.String()
}

// workloadFigures are the workload-specific figures the benchmark prints
// beside the end-to-end metrics (by name and unit, with sample counts).
func workloadFigures(workload string, o *outcome) string {
	var b strings.Builder
	line := func(name, unit string, v float64, n int, note string) {
		fmt.Fprintf(&b, "  %-16s %14.6f %-4s n=%d%s\n", name, v, unit, n, note)
	}
	lat := o.res.lat
	switch workload {
	case "cold-guardband":
		line("cold_query_s", "s", median(lat["cold"])/1e3, len(lat["cold"]), "")
		line("new_circuit_s", "s", median(lat["new-circuit"])/1e3, len(lat["new-circuit"]), "")
	case "warm-mix":
		all := sortedCopy(o.res.allLatencies())
		p99, ok := percentile(all, 0.99)
		note := ""
		if !ok {
			note = " (fewer than 10 samples beyond p99)"
		}
		line("latency_p99_ms", "ms", p99, len(all), note)
		line("batch_p50_ms", "ms", median(lat["batch"]), len(lat["batch"]), "")
	case "miss-sweep":
		line("mc_query_s", "s", median(lat["mc"])/1e3, len(lat["mc"]), "")
		ps := sortedCopy(lat["paths"])
		p50, _ := percentile(ps, 0.5)
		p90, ok := percentile(ps, 0.9)
		note := ""
		if !ok {
			note = " (fewer than 10 samples beyond p90)"
		}
		line("paths_p50_ms", "ms", p50, len(ps), "")
		line("paths_p90_ms", "ms", p90, len(ps), note)
	}
	line("fail_frac", "", ratio(float64(o.res.failed), float64(o.res.attempted)), o.res.attempted, "")
	return b.String()
}

// layerNames lists the per-layer metrics in report order with their
// units. Times of single calls come from the traced pass's spans; counts
// and ratios from the daemon's obs registry and the Go runtime over the
// untraced pass.
func layerNames() [][2]string {
	out := [][2]string{
		{"spice.transients", "count"}, {"spice.newton_iters", "count"},
		{"spice.step_reject_ratio", "ratio"}, {"spice.retries", "count"}, {"spice.busy_s", "s"},
		{"char.library_s", "s"}, {"char.libraries", "count"}, {"char.salvaged", "count"},
		{"char.disk_hit_ratio", "ratio"},
		{"char.sensitivities_ms", "ms"}, {"char.sample_library_ms", "ms"},
		{"liberty.load_ms", "ms"}, {"liberty.store_ms", "ms"},
		{"synth.synthesize_s", "s"}, {"synth.insts", "count"}, {"synth.busy_s", "s"},
		{"sta.compile_ms", "ms"}, {"sta.toppaths_ms", "ms"}, {"sta.batch_cp_ms", "ms"},
		{"sta.analyses", "count"}, {"sta.fallbacks", "count"},
		{"core.mc_sample_ms", "ms"}, {"core.mc_self_ms", "ms"},
	}
	for _, k := range allKinds {
		out = append(out, [2]string{"serve.handler_us." + k, "us"})
	}
	for _, k := range allKinds {
		out = append(out, [2]string{"serve.encode_us." + k, "us"})
	}
	out = append(out,
		[2]string{"serve.cache_hit_ratio", "ratio"}, [2]string{"serve.cache_fills", "count"},
		[2]string{"serve.cache_evictions", "count"}, [2]string{"serve.batch_memo_ratio", "ratio"},
		[2]string{"serve.batch_body_hits", "count"}, [2]string{"serve.batch_item_memo_hits", "count"},
		[2]string{"serve.rejected", "count"}, [2]string{"serve.timeouts", "count"},
		[2]string{"serve.warm_load_s", "s"})
	for _, k := range allKinds {
		out = append(out, [2]string{"client.overhead_us." + k, "us"})
	}
	for _, k := range allKinds {
		out = append(out, [2]string{"client.reply_bytes." + k, "B"})
	}
	out = append(out,
		[2]string{"client.retries", "count"}, [2]string{"client.integrity_errors", "count"},
		[2]string{"obs.span_roots", "count"}, [2]string{"obs.metrics_json_bytes", "B"},
		[2]string{"go.alloc_bytes_per_req", "B/req"}, [2]string{"go.gc_cycles", "count"},
		[2]string{"go.gc_pause_ms", "ms"})
	return out
}

// perLayer computes the per-layer metrics from an untraced pass u, the
// traced pass t over the same requests, and t's spans.
func perLayer(u, t *outcome, tr *tracer, clientRetries int64) map[string]metric {
	d := u.delta
	ms, us := time.Millisecond, time.Microsecond
	v := map[string]float64{
		"spice.transients":           d["spice.transients"],
		"spice.newton_iters":         d["spice.newton.iterations"],
		"spice.step_reject_ratio":    ratio(d["spice.steps.rejected"], d["spice.steps.accepted"]+d["spice.steps.rejected"]),
		"spice.retries":              d["spice.retry.attempts"],
		"spice.busy_s":               d["spice.transient.seconds.sum"],
		"char.library_s":             tr.meanSpan("char.characterize", time.Second),
		"char.libraries":             d["char.libraries"],
		"char.salvaged":              d["char.salvaged"],
		"char.disk_hit_ratio":        ratio(d["char.cache.hits"], d["char.cache.hits"]+d["char.cache.misses"]),
		"char.sensitivities_ms":      tr.meanSpan("char.sensitivities", ms),
		"char.sample_library_ms":     tr.meanSpan("char.sample_library", ms),
		"liberty.load_ms":            tr.meanSpan("liberty.load", ms),
		"liberty.store_ms":           tr.meanSpan("liberty.store", ms),
		"synth.synthesize_s":         tr.meanSpan("synth.synthesize", time.Second),
		"synth.busy_s":               d["synth.synthesize.seconds.sum"],
		"sta.compile_ms":             tr.meanSpan("sta.compile", ms),
		"sta.toppaths_ms":            tr.meanSpan("sta.toppaths", ms),
		"sta.batch_cp_ms":            tr.meanSpan("sta.batch_cp", ms),
		"sta.analyses":               d["sta.analyses"],
		"sta.fallbacks":              d["sta.incremental.fallbacks"],
		"serve.cache_hit_ratio":      ratio(d["serve.cache.hits"], d["serve.cache.hits"]+d["serve.cache.misses"]),
		"serve.cache_fills":          d["serve.cache.misses"],
		"serve.cache_evictions":      d["serve.cache.evictions"],
		"serve.batch_body_hits":      d["serve.batch.body_hits"],
		"serve.batch_item_memo_hits": d["serve.batch.memo_hits"],
		"serve.rejected":             d["serve.rejected"],
		"serve.timeouts":             d["serve.timeouts"],
		"serve.warm_load_s":          mean(u.warmLoadS),
		"client.retries":             float64(clientRetries),
		"client.integrity_errors":    float64(u.res.integrity),
		"obs.span_roots":             float64(u.spanRoots),
		"obs.metrics_json_bytes":     float64(u.jsonBytes),
		"go.alloc_bytes_per_req":     ratio(float64(u.allocBytes), float64(sumCounts(u.res.count))),
		"go.gc_cycles":               float64(u.gcCycles),
		"go.gc_pause_ms":             float64(u.gcPause) / float64(ms),
	}
	if u.itemsSent > 0 {
		answered := d["serve.batch.memo_hits"] + float64(u.itemsSent) - d["serve.batch.items"]
		v["serve.batch_memo_ratio"] = ratio(answered, float64(u.itemsSent))
	}
	rp := t.rp
	if n := len(rp.insts); n > 0 {
		var sum int
		for _, k := range rp.insts {
			sum += k
		}
		v["synth.insts"] = float64(sum) / float64(n)
	}
	if n, total := tr.spanStats("core.mc_guardband"); n > 0 {
		perQuery := float64(total) / float64(n) / float64(ms)
		v["core.mc_sample_ms"] = perQuery * float64(n) / float64(rp.mcSamples)
		// The estimation's own work: what is left of a query after its
		// two sensitivity loads and its samples, whose serial cost the
		// replay measured and the estimation spreads over GOMAXPROCS.
		samples := float64(rp.mcSamples) / float64(n)
		sampling := samples * 2 * (v["char.sample_library_ms"] + v["sta.batch_cp_ms"]) / float64(runtime.GOMAXPROCS(0))
		v["core.mc_self_ms"] = perQuery - 2*v["char.sensitivities_ms"] - sampling
	}
	for _, k := range allKinds {
		v["serve.handler_us."+k] = tr.meanSpan("serve.handler."+k, us)
		v["serve.encode_us."+k] = tr.meanSpan("serve.encode."+k, us)
		v["client.overhead_us."+k] = mean(rp.hitOverhead[k])
		v["client.reply_bytes."+k] = ratio(float64(u.res.replyBytes[k]), float64(u.res.count[k]))
	}
	out := map[string]metric{}
	for _, nu := range layerNames() {
		out[nu[0]] = metric{v[nu[0]], nu[1]}
	}
	return out
}

func sumCounts(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}
