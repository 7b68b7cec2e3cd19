// Command e2ebench is the end-to-end benchmark of the ADEPT2 engine. It
// drives one workload through the public API of package adept2 (and of
// internal/rpc for the remote workload) in whole rounds of fixed work
// until the run length has passed, checks every round against an oracle
// of its own, and prints one JSON object as the last line of output.
//
//	e2ebench --workload orders-large --seed 1 --seconds 12 --trace 0
//	e2ebench repeat --workload orders-large --runs 10 --seconds 12
//
// With --trace 0 the object holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics, derived from spans recorded around
// every call into a layer, and the spans are written to a JSON-lines
// file. See README.md for the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "repeat" {
		os.Exit(repeatMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints. Correct is always true when it
// is printed: a failed check ends the run with exit code 1 and no result.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics with their units.
var endToEnd = [][2]string{
	{"setup_s", "s"}, {"commit_per_s", "1/s"}, {"commit_p50_ms", "ms"}, {"read_p50_ms", "ms"},
	{"adhoc_p50_ms", "ms"}, {"mine_per_s", "1/s"}, {"heap_mb", "MB"}, {"journal_bytes_per_cmd", "B"},
}

// perLayer lists the per-layer metrics of a traced run with their units.
var perLayer = [][2]string{
	{"trace.commit_per_s", "1/s"},
	{"adept2.apply_us_p50", "us"}, {"adept2.apply_us_p99", "us"}, {"adept2.durable_wait_us_p50", "us"},
	{"runtime.alloc_bytes_per_cmd", "B"}, {"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"},
	{"worklist.page_us_p50", "us"}, {"worklist.page_us_p99", "us"},
	{"worklist.page_after_write_us", "us"}, {"worklist.page_cached_us", "us"},
	{"durable.fsyncs", "count"}, {"durable.fsync_us_mean", "us"}, {"durable.records_per_fsync", "count"},
	{"durable.checkpoints", "count"}, {"durable.checkpoint_ms_mean", "ms"},
	{"durable.checkpoint_busy_share", "ratio"}, {"durable.snapshot_bytes_per_journal_byte", "ratio"},
	{"durable.checkpoint_call_ms", "ms"},
	{"persist.journal_bytes", "B"},
	{"change.adhoc_apply_us_p50", "us"},
	{"evolution.migrate_per_s", "1/s"},
	{"evolution.us_per_instance", "us"}, {"evolution.outside_migration_ms", "ms"},
	{"evolution.migrated", "count"}, {"evolution.state_conflict", "count"},
	{"evolution.structural_conflict", "count"}, {"evolution.already_finished", "count"},
	{"mining.scan_ms_mean", "ms"},
	{"recovery.recover_s", "s"}, {"recovery.replayed", "count"}, {"recovery.us_per_replayed", "us"},
	{"recovery.snapshot_bytes_read", "B"},
	{"rpc.client_submit_us_p50", "us"}, {"rpc.receipt_wait_us_p50", "us"}, {"rpc.client_read_us_p50", "us"},
	{"rpc.server_commands_us_mean", "us"}, {"rpc.stream_events_per_receipt", "ratio"},
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: orders-large, orders-remote or loops-replay")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "run length: whole rounds are started until it has passed")
	trace := fs.Int("trace", 0, "1: record spans and report the per-layer metrics")
	work := fs.String("dir", filepath.Join(".bench_build", "e2ebench"), "directory for durable layouts and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *name)
		return 2
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(dir)
	ctx := context.Background()
	var rounds []*roundResult
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < time.Duration(*seconds)*time.Second; r++ {
		res, err := round(ctx, w, *seed, filepath.Join(dir, fmt.Sprint(r)), *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s round %d: %v\n", w.name, r, err)
			return 1
		}
		rounds = append(rounds, res)
		fmt.Fprintf(os.Stderr, "round %d: setup %.3fs loop %.3fs %.0f steps/s p50 %.2fms evolve %.1fms mine %.1fms recover %.3fs heap %.1fMB\n",
			r, res.setup.Seconds(), res.loop.Seconds(), float64(res.steps)/res.loop.Seconds(),
			median(res.commitMs), ms(res.evolve), ms(res.mine)/mineScans, res.recover.Seconds(), res.heapMB)
	}
	out := result{Correct: true, Metrics: map[string]metric{}}
	for _, r := range rounds {
		out.Attempted += r.attempted
		out.Failed += r.failed
	}
	e2e := endToEndValues(rounds)
	if *trace == 1 {
		var spans []span
		for _, r := range rounds {
			spans = append(spans, r.spans...)
		}
		path := filepath.Join(*work, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))
		if err := writeSpans(path, spans); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: write spans: %v\n", err)
			return 1
		}
		st := summarize(spans)
		printSpanTable(os.Stdout, st)
		vals := layerValues(rounds, st)
		vals["trace.commit_per_s"] = e2e["commit_per_s"]
		vals["evolution.migrate_per_s"] = e2e["migrate_per_s"]
		vals["recovery.recover_s"] = e2e["recover_s"]
		fmt.Printf("%-42s %16s %s\n", "per-layer metric", "value", "unit")
		for _, m := range perLayer {
			out.Metrics[m[0]] = metric{Value: vals[m[0]], Unit: m[1]}
			fmt.Printf("%-42s %16.4f %s\n", m[0], vals[m[0]], m[1])
		}
		fmt.Printf("spans: %d written to %s\n", len(spans), path)
	} else {
		for _, m := range endToEnd {
			out.Metrics[m[0]] = metric{Value: e2e[m[0]], Unit: m[1]}
		}
	}
	fmt.Printf("%s: %d rounds in %.1fs\n", w.name, len(rounds), time.Since(start).Seconds())
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// endToEndValues folds the rounds into the run's figures. A latency,
// the step rate of a loop segment and a scan rate are the median of all
// the run's samples; set-up time, the sizes, and the migration rate and
// recovery time (which the traced run reports per layer) are computed
// per round and reported as the median over the run's rounds. Medians
// keep a burst of load from the host's other tenants, which slows a few
// samples or one round, out of the run's figure.
func endToEndValues(rounds []*roundResult) map[string]float64 {
	per := map[string][]float64{}
	pooled := map[string][]float64{}
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	pool := func(name string, vs []float64) { pooled[name] = append(pooled[name], vs...) }
	for _, r := range rounds {
		add("setup_s", r.setup.Seconds())
		add("migrate_per_s", float64(r.migrated)/r.evolve.Seconds())
		add("recover_s", r.recover.Seconds())
		add("heap_mb", r.heapMB)
		add("journal_bytes_per_cmd", r.bytesPerCmd)
		pool("commit_per_s", r.commitPerS)
		pool("commit_p50_ms", r.commitMs)
		pool("read_p50_ms", r.readMs)
		pool("adhoc_p50_ms", r.adhocMs)
		pool("mine_per_s", r.minePerS)
	}
	out := map[string]float64{}
	for k, v := range per {
		out[k] = median(v)
	}
	for k, v := range pooled {
		out[k] = median(v)
	}
	return out
}

// layerValues derives the per-layer metrics: call-time percentiles over
// the pooled spans, and medians over rounds of the per-round values.
func layerValues(rounds []*roundResult, st map[string]*spanStats) map[string]float64 {
	vals := map[string]float64{}
	perRound := map[string][]float64{}
	var adhoc []float64
	for _, r := range rounds {
		for k, v := range r.layer {
			perRound[k] = append(perRound[k], v)
		}
		adhoc = append(adhoc, r.adhocSubmitUs...)
	}
	for k, v := range perRound {
		vals[k] = median(v)
	}
	pct := func(name string, p float64) float64 {
		if s := st[name]; s != nil {
			return percentile(append([]float64(nil), s.durUs...), p)
		}
		return 0
	}
	vals["adept2.apply_us_p50"] = pct("adept2.submit", 50)
	vals["adept2.apply_us_p99"] = pct("adept2.submit", 99)
	vals["adept2.durable_wait_us_p50"] = pct("adept2.durable_wait", 50)
	vals["worklist.page_us_p50"] = pct("worklist.page", 50)
	vals["worklist.page_us_p99"] = pct("worklist.page", 99)
	vals["rpc.client_submit_us_p50"] = pct("rpc.client_submit", 50)
	vals["rpc.receipt_wait_us_p50"] = pct("rpc.receipt_wait", 50)
	vals["rpc.client_read_us_p50"] = pct("rpc.client_read", 50)
	vals["change.adhoc_apply_us_p50"] = percentile(adhoc, 50)
	return vals
}

// lastJSONLine returns the last line of out that parses as a result.
func lastJSONLine(out string) (*result, error) {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &r, nil
}
