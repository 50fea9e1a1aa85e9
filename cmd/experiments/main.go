// Command experiments regenerates every table and figure of the paper's
// evaluation section (Table II, Figures 6-11) plus the repository's
// ablations, printing aligned text tables and optionally CSV files.
//
// Usage:
//
//	experiments                 # run everything at full scale
//	experiments -quick          # reduced scale (seconds instead of minutes)
//	experiments -run fig7,fig8  # subset
//	experiments -csv out/       # also write CSV files
//	experiments -procs 1        # serial reference path (default: all CPUs)
//	experiments -bench-json b.json  # machine-readable runtime/coverage summary
//
// The harness fans its independent per-(size, run) tasks out over -procs
// workers; each task derives its own seeded RNG and results merge in a
// fixed order, so for a given -seed the tables and CSVs are byte-identical
// at every -procs value (wall-clock columns aside). Use -procs 1 when the
// timing columns of fig10 and the acceptance-mode ablation should be
// measured without contention.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/chronus-sdn/chronus/internal/buildinfo"
	"github.com/chronus-sdn/chronus/internal/expt"
	"github.com/chronus-sdn/chronus/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "reduced scale for a fast pass")
	seed := fs.Int64("seed", 1, "experiment seed")
	runList := fs.String("run", "all", "comma-separated subset: tab2,fig6,fig7,fig8,fig9,fig10,fig11,ablations,skewadv,soak")
	csvDir := fs.String("csv", "", "directory to also write CSV tables into")
	procs := fs.Int("procs", runtime.GOMAXPROCS(0), "parallel experiment workers; 1 reproduces the serial path byte for byte")
	benchJSON := fs.String("bench-json", "", "write a machine-readable run summary (per-experiment wall time, per-table rows, audit tallies) to this file")
	benchTables := fs.String("bench-tables", "", "print the table shapes of an existing -bench-json snapshot (sorted, wall-clock-free) and exit; CI diffs two snapshots this way")
	benchTrend := fs.String("bench-trend", "", "compare two -bench-json snapshots as old.json,new.json and fail on wall-clock regressions past -trend-threshold")
	trendThreshold := fs.Float64("trend-threshold", 20, "percent slowdown per experiment that -bench-trend treats as a regression")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(w, buildinfo.String("experiments"))
		return nil
	}
	if *benchTables != "" {
		return printBenchTables(w, *benchTables)
	}
	if *benchTrend != "" {
		return benchTrendCompare(w, *benchTrend, *trendThreshold)
	}
	cfg := expt.Default(*seed)
	if *quick {
		cfg = expt.Quick(*seed)
	}
	cfg.Procs = *procs
	want := map[string]bool{}
	for _, k := range strings.Split(*runList, ",") {
		want[strings.TrimSpace(k)] = true
	}
	all := want["all"]
	selected := func(k string) bool { return all || want[k] }

	bench := &benchSummary{
		Seed:        *seed,
		Quick:       *quick,
		Procs:       *procs,
		Experiments: map[string]float64{},
		Tables:      map[string]benchTable{},
	}
	emit := func(name, title string, t *metrics.Table) error {
		fmt.Fprintf(w, "\n### %s — %s\n\n%s", name, title, t)
		bench.Tables[name] = benchTable{Columns: len(t.Header), Rows: len(t.Rows)}
		if *csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(*csvDir, name+".csv"), []byte(t.CSV()), 0o644)
	}
	timed := func(name string, f func() error) error {
		start := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		elapsed := time.Since(start)
		bench.Experiments[name] = elapsed.Seconds()
		fmt.Fprintf(w, "\n[%s took %v]\n", name, elapsed.Round(time.Millisecond))
		return nil
	}

	if selected("tab2") {
		if err := timed("tab2", func() error {
			res, err := expt.Table2FlowTables(cfg)
			if err != nil {
				return err
			}
			if err := emit("table2_source", "Table II: flow table at the source switch", res.Source); err != nil {
				return err
			}
			return emit("table2_dest", "Table II: flow table at the destination switch", res.Dest)
		}); err != nil {
			return err
		}
	}
	if selected("fig6") {
		if err := timed("fig6", func() error {
			res, err := expt.Fig6Bandwidth(cfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "\nmonitored link: %s -> %s\n", res.Link[0], res.Link[1])
			if err := emit("fig6_series", "Fig. 6: bandwidth consumption over time", res.Table()); err != nil {
				return err
			}
			return emit("fig6_summary", "Fig. 6 summary: peaks and ground truth", res.Summary())
		}); err != nil {
			return err
		}
	}
	if selected("fig7") || selected("fig8") {
		if err := timed("fig7+fig8", func() error {
			f7, f8, err := expt.EvaluateQuality(cfg)
			if err != nil {
				return err
			}
			for _, p := range f7.Audit {
				bench.Audit.Checks += p.Checks
				bench.Audit.Agree += p.Agree
			}
			if selected("fig7") {
				if err := emit("fig7", "Fig. 7: % congestion-free update instances", f7.Table()); err != nil {
					return err
				}
			}
			if selected("fig8") {
				return emit("fig8", "Fig. 8: congested time-extended links per instance", f8.Table())
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if selected("fig9") {
		if err := timed("fig9", func() error {
			res, err := expt.Fig9RuleOverhead(cfg)
			if err != nil {
				return err
			}
			return emit("fig9", "Fig. 9: forwarding rules, Chronus box plot vs TP mean", res.Table())
		}); err != nil {
			return err
		}
	}
	if selected("fig10") {
		if err := timed("fig10", func() error {
			res, err := expt.Fig10RunningTime(cfg)
			if err != nil {
				return err
			}
			return emit("fig10", "Fig. 10: scheduling time at scale (budget flags = paper's 'exceeds limit')", res.Table())
		}); err != nil {
			return err
		}
	}
	if selected("fig11") {
		if err := timed("fig11", func() error {
			res, err := expt.Fig11UpdateTimeCDF(cfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "\nn=%d: solved %d, excluded %d (infeasible), OPT budget hits %d\n",
				res.N, res.Solved, res.Excluded, res.OPTBudgetHits)
			return emit("fig11", "Fig. 11: CDF of update time (time units)", res.Table())
		}); err != nil {
			return err
		}
	}
	if selected("ablations") {
		if err := timed("ablations", func() error {
			cs, err := expt.AblationClockSkew(cfg)
			if err != nil {
				return err
			}
			if err := emit("ablation_clock", "Ablation: clock sync error vs transient violations", expt.ClockSkewTable(cs)); err != nil {
				return err
			}
			am, err := expt.AblationAcceptanceMode(cfg)
			if err != nil {
				return err
			}
			if err := emit("ablation_mode", "Ablation: exact vs fast greedy acceptance", expt.ModeTable(am)); err != nil {
				return err
			}
			em, err := expt.AblationExecutionMode(cfg)
			if err != nil {
				return err
			}
			return emit("ablation_exec", "Ablation: timed vs barrier-paced execution", expt.ExecModeTable(em))
		}); err != nil {
			return err
		}
	}
	if selected("skewadv") {
		if err := timed("skewadv", func() error {
			points, err := expt.SkewAdversary(cfg)
			if err != nil {
				return err
			}
			return emit("skewadv", "Skew adversary: forecast vs observed health vs audited truth as sync error sweeps past slack", expt.SkewAdvTable(points))
		}); err != nil {
			return err
		}
	}
	if selected("soak") {
		if err := timed("soak", func() error {
			res, err := expt.Soak(cfg)
			if err != nil {
				return err
			}
			if res.Violations != 0 || res.Overcommits != 0 || res.AuditViolations != 0 {
				return fmt.Errorf("soak gate: %d joint violations, %d ledger overcommits, %d audit violations (all must be 0)",
					res.Violations, res.Overcommits, res.AuditViolations)
			}
			return emit("soak", "Admission soak: queued-up-front updates drained in waves, holds cycling, auditor online", expt.SoakTable(res))
		}); err != nil {
			return err
		}
	}
	if *benchJSON != "" {
		data, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*benchJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nbench summary written to %s\n", *benchJSON)
	}
	return nil
}

// benchSummary is the -bench-json payload: enough for CI and tooling to
// track runtime and coverage per experiment without parsing the text
// tables.
type benchSummary struct {
	Seed  int64 `json:"seed"`
	Quick bool  `json:"quick"`
	Procs int   `json:"procs"`
	// Experiments maps experiment name to wall-clock seconds.
	Experiments map[string]float64 `json:"experiments"`
	// Tables maps emitted table name to its shape.
	Tables map[string]benchTable `json:"tables"`
	// Audit sums the Fig. 7 validator-versus-auditor cross-check.
	Audit struct {
		Checks int `json:"checks"`
		Agree  int `json:"agree"`
	} `json:"audit"`
}

type benchTable struct {
	Columns int `json:"columns"`
	Rows    int `json:"rows"`
}

// printBenchTables renders the deterministic part of a -bench-json
// snapshot — table names and shapes, sorted — so CI can diff a fresh run
// against the checked-in snapshot without tripping on wall-clock fields.
func printBenchTables(w io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var bench benchSummary
	if err := json.Unmarshal(data, &bench); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	names := make([]string, 0, len(bench.Tables))
	for name := range bench.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := bench.Tables[name]
		fmt.Fprintf(w, "%s %d cols %d rows\n", name, t.Columns, t.Rows)
	}
	return nil
}
