package cli

import (
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"

	"psk/internal/dataset"
	"psk/internal/experiments"
	"psk/internal/table"
)

// experiment is one pskexp experiment: the name -exp selects it by, the
// title of its output section, and its run, which returns the section's
// body.
type experiment struct {
	name, title string
	run         func() (string, error)
}

// format returns an experiment result's rendered body.
func format[R interface{ Format() string }](res R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return res.Format(), nil
}

// Exp implements pskexp: regenerate the paper's tables and figures.
func Exp(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pskexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		adult    = fs.String("adult", "", "path to a real UCI adult.data file (default: synthetic Adult)")
		seed     = fs.Int64("seed", 17, "sample seed for the Adult experiments")
		ts       = fs.Int("ts", 0, "suppression threshold for Table 8")
		timeout  = fs.Duration("timeout", 0, "wall-clock budget for the E18 budget experiment's flag rows (0 = off)")
		maxNodes = fs.Int64("max-nodes", 0, "node budget for the E18 budget experiment's flag rows (0 = off)")
		source   *table.Table
	)
	prof := registerProfileFlags(fs)
	of := registerReportFlags(fs)

	// exps lists the experiments in the order "all" runs them.
	exps := []experiment{
		{"attack", "E1: motivating attack (Tables 1-2)", func() (string, error) {
			return format(experiments.RunMotivatingAttack())
		}},
		{"table3", "E2: Table 3 sensitivity analysis", func() (string, error) {
			return format(experiments.RunTable3Sensitivity())
		}},
		{"figure1", "E3: Figure 1 hierarchies", func() (string, error) {
			return format(experiments.RunFigure1())
		}},
		{"figure2", "E4: Figure 2 lattice", func() (string, error) {
			return format(experiments.RunFigure2())
		}},
		{"figure3", "E5: Figure 3 violation counts", func() (string, error) {
			return format(experiments.RunFigure3())
		}},
		{"table4", "E6: Table 4 minimal generalizations", func() (string, error) {
			return format(experiments.RunTable4())
		}},
		{"example1", "E7: Tables 5-6 frequency sets", func() (string, error) {
			return format(experiments.RunExample1())
		}},
		{"table7", "E8: Table 7 Adult hierarchies", func() (string, error) {
			im := source
			if im == nil {
				var err error
				if im, err = dataset.Generate(4000, 2006); err != nil {
					return "", err
				}
			}
			return format(experiments.RunTable7(im))
		}},
		{"table8", "E9: Table 8 attribute disclosures", func() (string, error) {
			return format(experiments.RunTable8(experiments.Table8Config{
				Source: source, SampleSeed: *seed, MaxSuppress: *ts,
			}))
		}},
		{"ablation", "E10: necessary-condition ablation", func() (string, error) {
			return format(experiments.RunAblation(nil, 3, 2, source, *seed))
		}},
		{"utility", "E11: full-domain vs Mondrian vs GreedyCluster utility", func() (string, error) {
			return format(experiments.RunUtility(2000, nil, 1, source, *seed))
		}},
		{"methods", "E14: masking methods comparison", func() (string, error) {
			return format(experiments.RunMethods(2000, 3, source, *seed))
		}},
		{"decay", "E15: attribute disclosures vs k", func() (string, error) {
			return format(experiments.RunDisclosureDecay(2000, nil, source, *seed))
		}},
		{"policy", "E16: composite-policy search", func() (string, error) {
			return format(experiments.RunPolicyComposite(1000, 3, 2, source, *seed))
		}},
		{"telemetry", "E17: search telemetry", func() (string, error) {
			res, err := experiments.RunTelemetry(1000, 3, 2, source, *seed, of.tracer)
			if err != nil {
				return "", err
			}
			if of.stats {
				for _, row := range res.Rows {
					fmt.Fprintf(stderr, "--- telemetry: %s ---\n%s", row.Strategy, row.Report.String())
				}
			}
			if of.metricsJSON != "" {
				if err := writeJSON(of.metricsJSON, res.Reports()); err != nil {
					return "", err
				}
			}
			return res.Format(), nil
		}},
		{"budget", "E18: budget-bounded search", func() (string, error) {
			return format(experiments.RunBudget(1000, 3, 2, source, *seed, *timeout, *maxNodes))
		}},
		{"frontier", "E19: utility-aware Pareto frontier", func() (string, error) {
			return format(experiments.RunFrontier(2000, source, *seed))
		}},
	}
	names := make([]string, len(exps))
	for i, x := range exps {
		names[i] = x.name
	}
	exp := fs.String("exp", "all", "experiment to run (all, "+strings.Join(names, ", ")+")")
	if err := fs.Parse(args); err != nil {
		return inputErr(err)
	}
	if *exp != "all" && !slices.Contains(names, *exp) {
		return inputErr(fmt.Errorf("unknown experiment %q (available: all, %s)", *exp, strings.Join(names, ", ")))
	}
	if of.active() && *exp != "all" && *exp != "telemetry" {
		return inputErr(fmt.Errorf("-stats, -metrics-json and -trace apply only to -exp telemetry (or all)"))
	}

	stopProf, err := prof.start(stderr)
	if err != nil {
		return err
	}
	defer stopProf()
	if err := of.setup(stderr); err != nil {
		return err
	}
	defer of.close(stderr)

	if *adult != "" {
		source, err = dataset.Load(*adult)
		if err != nil {
			return inputErr(err)
		}
		fmt.Fprintf(stdout, "using real Adult data: %d records from %s\n\n", source.NumRows(), *adult)
	}

	run := func(x experiment) error {
		body, err := x.run()
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(stdout, "=== %s ===\n%s\n", x.title, body)
		return err
	}
	if *exp != "all" {
		return run(exps[slices.Index(names, *exp)])
	}
	for _, x := range exps {
		if err := run(x); err != nil {
			return fmt.Errorf("%s: %w", x.name, err)
		}
	}
	return nil
}
