// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the program's own packages, checks every output,
// and prints every end-to-end metric by name with its unit; with --trace 1
// it prints the per-layer metrics instead. See README.md in this directory
// for the workloads, the metrics and the host normalisation.
//
//	bash perfbench/run.sh --workload tricycle-sample --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one named value with its unit, as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measurement is what one run of a workload collects. Durations are raw
// (host units); endToEnd normalises them with the run's calibration factor.
type measurement struct {
	attempted, failed int
	failures          []string // first few failed checks, for the log

	setupS []float64 // one raw duration per set-up repetition
	opMS   []float64 // raw latency of every measured op
	rssMB  []float64 // peak resident set of every measured pass
	// emptySamples counts sampled graphs with no edges (serve-mixed).
	emptySamples int
	ops          int
	busyS        float64 // raw measured time the ops/s rate is taken over
	cpuMS        float64 // raw process CPU time spent in measured phases
	allocB       float64 // bytes allocated in measured phases
	mreTri       float64
	ksDeg        float64
	calib        calibrator
	layers       map[string]metric // per-layer metrics of a traced run
	details      []string          // per-layer metrics outside BENCHMARK.json, printed before the result
}

// Set-up runs at least minSetups times and, while the set-ups so far took
// less than minSetupSeconds in all, up to maxSetups times; setup_s is their
// median, so cheap set-ups get more repetitions.
const (
	minSetups       = 5
	maxSetups       = 20
	minSetupSeconds = 2.0
)

// moreSetups reports whether the run should set up once more.
func (m *measurement) moreSetups() bool {
	total := 0.0
	for _, s := range m.setupS {
		total += s
	}
	n := len(m.setupS)
	return n < minSetups || (n < maxSetups && total < minSetupSeconds)
}

// fail records a failed output check.
func (m *measurement) fail(format string, args ...any) {
	m.failed++
	if len(m.failures) < 5 {
		m.failures = append(m.failures, fmt.Sprintf(format, args...))
	}
}

// endToEndNames lists the end-to-end metrics in BENCHMARK.json order.
var endToEndNames = []string{
	"setup_s", "ops_per_s", "op_p99_ms", "cpu_ms_per_op",
	"alloc_mb_per_op", "peak_rss_mb", "ok_share", "mre_triangles", "ks_degree",
}

// timingMetrics are the end-to-end metrics the calibration factor applies to.
var timingMetrics = map[string]bool{
	"setup_s": true, "ops_per_s": true, "op_p99_ms": true, "cpu_ms_per_op": true,
}

// endToEnd computes the end-to-end metrics; factor 1 gives raw timings.
func (m *measurement) endToEnd(factor float64) map[string]metric {
	ops := float64(max(m.ops, 1))
	p99, _, _ := tailPercentile(m.opMS)
	return map[string]metric{
		"setup_s":         {median(m.setupS) * factor, "s"},
		"ops_per_s":       {ops / m.busyS / factor, "1/s"},
		"op_p99_ms":       {p99 * factor, "ms"},
		"cpu_ms_per_op":   {m.cpuMS / ops * factor, "ms"},
		"alloc_mb_per_op": {m.allocB / ops / 1e6, "MB"},
		"peak_rss_mb":     {median(m.rssMB), "MiB"},
		"ok_share":        {float64(m.attempted-m.failed) / float64(max(m.attempted, 1)), "ratio"},
		"mre_triangles":   {m.mreTri, "ratio"},
		"ks_degree":       {m.ksDeg, "ratio"},
	}
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
}

// workload runs one measured run of a named workload.
type workload func(ctx context.Context, cfg config, m *measurement) error

var workloads = map[string]workload{
	"tricycle-sample": runTriCycLeSample,
	"fcl-sample":      runFCLSample,
	"serve-mixed":     runServeMixed,
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: tricycle-sample, fcl-sample or serve-mixed")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are derived from")
	seconds := fs.Float64("seconds", 20, "how long one run measures")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	workdir := fs.String("workdir", ".bench_build/perfbench/work", "directory for temporary data and span files")
	repeat := fs.Int("repeat", 1, "runs of the workload back to back; above 1 prints the steadiness report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive, --repeat at least 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir}
	ctx := context.Background()

	if *repeat > 1 {
		return steadiness(ctx, cfg, w, *repeat)
	}
	var m measurement
	if err := w(ctx, cfg, &m); err != nil {
		return err
	}
	res := result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed}
	for _, f := range m.failures {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", f)
	}
	// The median op latency is printed, not gated: on serve-mixed the
	// sub-millisecond ops are exactly half the mix, so the median sits on the
	// gap between them and the samples and moved by ±30% between runs.
	_, q, n := tailPercentile(m.opMS)
	fmt.Printf("# %s seed=%d ops=%d passes-time=%.2fs kernel=%.3fms (n=%d) factor=%.4f op_p99 at q=%.4f of %d samples, op_p50 %.4fms, empty samples %d\n",
		cfg.workload, cfg.seed, m.ops, m.busyS, m.calib.refMS(), len(m.calib.samplesMS), m.calib.factor(), q, n,
		median(m.opMS)*m.calib.factor(), m.emptySamples)
	if cfg.trace {
		for _, d := range m.details {
			fmt.Println("# " + d)
		}
		res.Metrics = m.layers
	} else {
		res.Metrics = m.endToEnd(m.calib.factor())
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// steadiness runs the workload k times back to back and prints, per
// end-to-end metric, the median, the IQR share and the max/min share of both
// the raw and the host-normalised values, so the calibration's benefit is
// measured rather than assumed.
func steadiness(ctx context.Context, cfg config, w workload, k int) error {
	raw := make(map[string][]float64)
	norm := make(map[string][]float64)
	units := make(map[string]string)
	var refs []float64
	attempted, failed := 0, 0
	for i := 0; i < k; i++ {
		var m measurement
		if err := w(ctx, cfg, &m); err != nil {
			return err
		}
		attempted += m.attempted
		failed += m.failed
		refs = append(refs, m.calib.refMS())
		for name, v := range m.endToEnd(1) {
			raw[name] = append(raw[name], v.Value)
		}
		for name, v := range m.endToEnd(m.calib.factor()) {
			norm[name] = append(norm[name], v.Value)
			units[name] = v.Unit
		}
		fmt.Printf("# run %d/%d: kernel %.3f ms, ops/s raw %.4f normalised %.4f\n",
			i+1, k, m.calib.refMS(), raw["ops_per_s"][i], norm["ops_per_s"][i])
	}
	fmt.Printf("# steadiness of %s over %d runs (seed %d): kernel median %.3f ms, IQR share %.4f, max/min share %.4f\n",
		cfg.workload, k, cfg.seed, median(refs), iqrShare(refs), maxMinShare(refs))
	fmt.Printf("# %-16s %12s %10s %10s | %12s %10s %10s | %s\n",
		"metric", "raw median", "raw IQR", "raw max/min", "norm median", "norm IQR", "norm max/min", "verdict")
	names := append([]string(nil), endToEndNames...)
	sort.Strings(names)
	summary := make(map[string]metric)
	for _, name := range names {
		r, n := raw[name], norm[name]
		verdict := "not a timing"
		if timingMetrics[name] {
			switch {
			case iqrShare(n) < iqrShare(r):
				verdict = "normalisation narrows the IQR"
			case iqrShare(n) == iqrShare(r):
				verdict = "no change"
			default:
				verdict = "normalisation does NOT help here"
			}
		}
		fmt.Printf("# %-16s %12.5g %10.4f %10.4f | %12.5g %10.4f %10.4f | %s\n",
			name, median(r), iqrShare(r), maxMinShare(r), median(n), iqrShare(n), maxMinShare(n), verdict)
		summary[name] = metric{median(n), units[name]}
	}
	line, err := json.Marshal(result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: summary})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// seedStream is a splitmix64 stream of seeds. Seeded with --seed it gives a
// run's sample and request seeds; seeded with a fixture seed it gives
// serve-mixed's fixed datasets and fits. The same seed always gives the same
// stream.
type seedStream struct{ x uint64 }

func newSeedStream(seed int64, salt uint64) *seedStream {
	return &seedStream{x: uint64(seed)*0x9E3779B97F4A7C15 ^ salt}
}

// next returns a positive non-zero seed.
func (s *seedStream) next() int64 {
	s.x += 0x9E3779B97F4A7C15
	z := s.x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z>>2) | 1
}

// spanFile is where a traced run writes its spans.
func spanFile(cfg config) string {
	return filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
}

// layerMetric builds a per-layer metric entry.
func layerMetric(v float64, unit string) metric {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	return metric{v, unit}
}

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
