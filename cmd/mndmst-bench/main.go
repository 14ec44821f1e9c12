// Command mndmst-bench runs the deterministic perf-regression harness
// (internal/bench/harness) and gates revisions against a committed
// baseline.
//
// Modes of use:
//
//	mndmst-bench -mode sim -out BENCH_core.json
//	    Run the pinned scenario suite on the simulated clocks. Output is
//	    bit-stable: two runs of the same binary produce byte-identical
//	    files, so the baseline diffs exactly.
//
//	mndmst-bench -mode wall -reps 5 -out BENCH_core.json
//	    Measure real elapsed time per scenario (min-of-N with warmup and
//	    IQR outlier rejection) with an environment fingerprint.
//
//	mndmst-bench -compare bench.baseline.json [-current BENCH_core.json]
//	    Compare a current record against a baseline. Without -current the
//	    suite runs first (in the baseline's mode). Sim baselines gate
//	    exactly; wall baselines within -tol. Exit 0 pass, 1 regression.
//
//	mndmst-bench -validate BENCH_core.json
//	    Schema-check an existing record (exit 2 on any load failure —
//	    including an empty file).
//
//	mndmst-bench -list
//	    Print the pinned scenario names.
//
// Exit codes: 0 pass, 1 regression detected, 2 load/run failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"

	"mndmst/internal/bench/harness"
	"mndmst/internal/bench/schema"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	fs := flag.NewFlagSet("mndmst-bench", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		mode      = fs.String("mode", "sim", "measurement mode: sim (deterministic clocks) or wall (real time)")
		scale     = fs.Float64("scale", harness.DefaultScale, "workload scale")
		scenarios = fs.String("scenarios", "", "regexp selecting scenarios to run (default all)")
		out       = fs.String("out", "", "write the record to this file (default stdout)")
		reps      = fs.Int("reps", 5, "wall mode: timed repetitions per scenario")
		warmup    = fs.Int("warmup", 1, "wall mode: untimed warmup runs per scenario (values below 1 run one)")
		compare   = fs.String("compare", "", "baseline file to gate against")
		current   = fs.String("current", "", "with -compare: pre-recorded current file instead of running the suite")
		tol       = fs.Float64("tol", schema.DefaultWallPct, "with -compare: wall-mode tolerance band (fraction, e.g. 0.25)")
		validate  = fs.String("validate", "", "schema-check this record file and exit")
		list      = fs.Bool("list", false, "print the pinned scenario names and exit")
		quiet     = fs.Bool("quiet", false, "suppress per-scenario progress")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "mndmst-bench: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	if *list {
		for _, name := range harness.Names() {
			fmt.Println(name)
		}
		return 0
	}
	if *validate != "" {
		f, err := schema.Load(*validate)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mndmst-bench: %v\n", err)
			return 2
		}
		fmt.Printf("%s: valid %s record (%s mode, %d scenarios)\n", *validate, f.Schema, f.Mode, len(f.Scenarios))
		return 0
	}
	if *compare != "" {
		return runCompare(*compare, *current, *mode, *scale, *scenarios, *reps, *warmup, *tol, *quiet)
	}

	f, err := runSuite(*mode, *scale, *scenarios, *reps, *warmup, *quiet)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mndmst-bench: %v\n", err)
		return 2
	}
	if err := emit(f, *out); err != nil {
		fmt.Fprintf(os.Stderr, "mndmst-bench: %v\n", err)
		return 2
	}
	return 0
}

func runSuite(mode string, scale float64, filter string, reps, warmup int, quiet bool) (*schema.File, error) {
	cfg := harness.Config{Mode: mode, Scale: scale, Reps: reps, Warmup: warmup}
	if filter != "" {
		re, err := regexp.Compile(filter)
		if err != nil {
			return nil, fmt.Errorf("bad -scenarios regexp: %w", err)
		}
		cfg.Filter = re
	}
	if !quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	return harness.Run(cfg)
}

func emit(f *schema.File, out string) error {
	if out == "" {
		buf, err := schema.Encode(f)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(buf)
		return err
	}
	if err := schema.Write(out, f); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d scenarios)\n", out, len(f.Scenarios))
	return nil
}

func runCompare(baselinePath, currentPath, mode string, scale float64, filter string, reps, warmup int, tol float64, quiet bool) int {
	baseline, err := schema.Load(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mndmst-bench: baseline: %v\n", err)
		return 2
	}
	var cur *schema.File
	if currentPath != "" {
		if cur, err = schema.Load(currentPath); err != nil {
			fmt.Fprintf(os.Stderr, "mndmst-bench: current: %v\n", err)
			return 2
		}
	} else {
		// Re-measure under the baseline's own conditions so the diff is
		// apples-to-apples; explicit flags for mode/scale are ignored in
		// favor of what the baseline records.
		_ = mode
		cur, err = runSuite(baseline.Mode, baseline.Scale, filter, reps, warmup, quiet)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mndmst-bench: %v\n", err)
			return 2
		}
	}
	if filter != "" && currentPath == "" {
		// A filtered run legitimately lacks the unmatched baseline
		// scenarios; restrict the baseline to the same subset.
		re, err := regexp.Compile(filter)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mndmst-bench: bad -scenarios regexp: %v\n", err)
			return 2
		}
		baseline = subsetFile(baseline, re)
	}
	res, err := schema.Compare(baseline, cur, schema.Tolerance{WallPct: tol})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mndmst-bench: %v\n", err)
		return 2
	}
	res.Report(os.Stdout)
	if !res.Passed() {
		return 1
	}
	return 0
}

// subsetFile restricts f to the scenarios matching re.
func subsetFile(f *schema.File, re *regexp.Regexp) *schema.File {
	out := *f
	out.Scenarios = nil
	for _, sc := range f.Scenarios {
		if re.MatchString(sc.Name) {
			out.Scenarios = append(out.Scenarios, sc)
		}
	}
	return &out
}
