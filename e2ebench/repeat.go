package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// repeatMain runs one workload several times untraced, each run with the
// next seed, in a child process of this binary, and prints the median,
// the quartiles and the spread ((q3-q1)/median) of every end-to-end
// metric: the figures the bounds are set from.
func repeatMain(args []string) int {
	fs := flag.NewFlagSet("repeat", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to repeat")
	runs := fs.Int("runs", 10, "number of runs")
	seed := fs.Int64("seed", 1, "seed of the first run; run k uses seed+k")
	seconds := fs.Int("seconds", 10, "run length of each run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "repeat: %v\n", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	failedShare := map[string]bool{}
	for k := 0; k < *runs; k++ {
		s := *seed + int64(k)
		cmd := exec.Command(self, "--workload", *name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(*seconds), "--trace", "0")
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "repeat: run with seed %d: %v\n", s, err)
			return 1
		}
		r, err := lastJSONLine(out.String())
		if err != nil {
			fmt.Fprintf(os.Stderr, "repeat: run with seed %d: %v\n", s, err)
			return 1
		}
		failedShare[fmt.Sprintf("%d/%d", r.Failed, r.Attempted)] = true
		for k, m := range r.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "repeat: seed %d done (%d attempted, %d failed)\n", s, r.Attempted, r.Failed)
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%s: %d runs, failed/attempted seen: %v\n", *name, *runs, keys(failedShare))
	fmt.Printf("%-40s %8s %14s %14s %14s %8s\n", "metric", "unit", "median", "q1", "q3", "spread")
	for _, k := range names {
		v := values[k]
		q1, q3 := quartiles(v)
		med := median(v)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("%-40s %8s %14.4f %14.4f %14.4f %8.3f\n", k, units[k], med, q1, q3, spread)
	}
	return 0
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
