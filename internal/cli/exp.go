package cli

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"psk/internal/dataset"
	"psk/internal/experiments"
	"psk/internal/table"
)

// ExpNames lists the experiment identifiers Exp accepts, in the order
// "all" runs them.
var ExpNames = []string{"attack", "table3", "figure1", "figure2", "figure3",
	"table4", "example1", "table7", "table8", "ablation", "utility", "methods", "decay", "policy",
	"telemetry", "budget", "frontier", "observatory", "serve"}

// Exp implements pskexp: regenerate the paper's tables and figures.
func Exp(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pskexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "experiment to run (all, "+strings.Join(ExpNames, ", ")+")")
		adult    = fs.String("adult", "", "path to a real UCI adult.data file (default: synthetic Adult)")
		seed     = fs.Int64("seed", 17, "sample seed for the Adult experiments")
		ts       = fs.Int("ts", 0, "suppression threshold for Table 8")
		timeout  = fs.Duration("timeout", 0, "wall-clock budget for the E18 budget experiment's flag rows (0 = off)")
		maxNodes = fs.Int64("max-nodes", 0, "node budget for the E18 budget experiment's flag rows (0 = off)")
	)
	prof := registerProfileFlags(fs)
	of := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return inputErr(err)
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

	var source *table.Table
	if *adult != "" {
		var err error
		source, err = dataset.Load(*adult)
		if err != nil {
			return inputErr(err)
		}
		fmt.Fprintf(stdout, "using real Adult data: %d records from %s\n\n", source.NumRows(), *adult)
	}

	emit := func(title, body string) error {
		_, err := fmt.Fprintf(stdout, "=== %s ===\n%s\n", title, body)
		return err
	}

	runners := map[string]func() error{
		"attack": func() error {
			res, err := experiments.RunMotivatingAttack()
			if err != nil {
				return err
			}
			return emit("E1: motivating attack (Tables 1-2)", res.Format())
		},
		"table3": func() error {
			res, err := experiments.RunTable3Sensitivity()
			if err != nil {
				return err
			}
			return emit("E2: Table 3 sensitivity analysis", res.Format())
		},
		"figure1": func() error {
			res, err := experiments.RunFigure1()
			if err != nil {
				return err
			}
			return emit("E3: Figure 1 hierarchies", res.Format())
		},
		"figure2": func() error {
			res, err := experiments.RunFigure2()
			if err != nil {
				return err
			}
			return emit("E4: Figure 2 lattice", res.Format())
		},
		"figure3": func() error {
			res, err := experiments.RunFigure3()
			if err != nil {
				return err
			}
			return emit("E5: Figure 3 violation counts", res.Format())
		},
		"table4": func() error {
			res, err := experiments.RunTable4()
			if err != nil {
				return err
			}
			return emit("E6: Table 4 minimal generalizations", res.Format())
		},
		"example1": func() error {
			res, err := experiments.RunExample1()
			if err != nil {
				return err
			}
			return emit("E7: Tables 5-6 frequency sets", res.Format())
		},
		"table7": func() error {
			im := source
			if im == nil {
				var err error
				im, err = dataset.Generate(4000, 2006)
				if err != nil {
					return err
				}
			}
			res, err := experiments.RunTable7(im)
			if err != nil {
				return err
			}
			return emit("E8: Table 7 Adult hierarchies", res.Format())
		},
		"table8": func() error {
			res, err := experiments.RunTable8(experiments.Table8Config{
				Source:      source,
				SampleSeed:  *seed,
				MaxSuppress: *ts,
			})
			if err != nil {
				return err
			}
			return emit("E9: Table 8 attribute disclosures", res.Format())
		},
		"ablation": func() error {
			res, err := experiments.RunAblation(nil, 3, 2, source, *seed)
			if err != nil {
				return err
			}
			return emit("E10: necessary-condition ablation", res.Format())
		},
		"utility": func() error {
			res, err := experiments.RunUtility(2000, nil, 1, source, *seed)
			if err != nil {
				return err
			}
			return emit("E11: full-domain vs Mondrian vs GreedyCluster utility", res.Format())
		},
		"decay": func() error {
			res, err := experiments.RunDisclosureDecay(2000, nil, source, *seed)
			if err != nil {
				return err
			}
			return emit("E15: attribute disclosures vs k", res.Format())
		},
		"methods": func() error {
			res, err := experiments.RunMethods(2000, 3, source, *seed)
			if err != nil {
				return err
			}
			return emit("E14: masking methods comparison", res.Format())
		},
		"policy": func() error {
			res, err := experiments.RunPolicyComposite(1000, 3, 2, source, *seed)
			if err != nil {
				return err
			}
			return emit("E16: composite-policy search", res.Format())
		},
		"telemetry": func() error {
			res, err := experiments.RunTelemetry(1000, 3, 2, source, *seed, of.tracer)
			if err != nil {
				return err
			}
			if of.stats {
				for _, row := range res.Rows {
					fmt.Fprintf(stderr, "--- telemetry: %s ---\n%s", row.Strategy, row.Report.String())
				}
			}
			if of.metricsJSON != "" {
				if err := writeJSON(of.metricsJSON, res.Reports()); err != nil {
					return err
				}
			}
			return emit("E17: search telemetry", res.Format())
		},
		"budget": func() error {
			res, err := experiments.RunBudget(1000, 3, 2, source, *seed, *timeout, *maxNodes)
			if err != nil {
				return err
			}
			return emit("E18: budget-bounded search", res.Format())
		},
		"frontier": func() error {
			res, err := experiments.RunFrontier(2000, source, *seed)
			if err != nil {
				return err
			}
			return emit("E19: utility-aware Pareto frontier", res.Format())
		},
		"observatory": func() error {
			res, err := experiments.RunObservatory(20000, 3, 2, source, *seed)
			if err != nil {
				return err
			}
			return emit("E20: live observatory", res.Format())
		},
		"serve": func() error {
			res, err := experiments.RunServe()
			if err != nil {
				return err
			}
			return emit("E21: anonymization-as-a-service load study", res.Format())
		},
	}

	if *exp == "all" {
		for _, name := range ExpNames {
			if err := runners[name](); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	runner, ok := runners[*exp]
	if !ok {
		return inputErr(fmt.Errorf("unknown experiment %q (available: all, %s)", *exp, strings.Join(ExpNames, ", ")))
	}
	return runner()
}
