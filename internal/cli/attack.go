package cli

import (
	"flag"
	"fmt"
	"io"
	"sort"

	"psk"
)

// Attack implements pskattack: simulate the paper's record-linkage
// intruder against a masked CSV using an external identified CSV, and
// report identity and attribute disclosure.
func Attack(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pskattack", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		masked   = fs.String("masked", "", "masked (released) CSV file")
		external = fs.String("external", "", "intruder's identified CSV file")
		idAttr   = fs.String("id", "Name", "identifier column of the external file")
		qi       = fs.String("qi", "", "comma-separated key attributes shared by both files")
		conf     = fs.String("conf", "", "comma-separated confidential attributes of the masked file")
		verbose  = fs.Bool("leaks", false, "list each learned fact")
	)
	prof := registerProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return inputErr(err)
	}
	if *masked == "" || *external == "" || *qi == "" {
		fs.Usage()
		return inputErr(fmt.Errorf("-masked, -external and -qi are required"))
	}
	stopProf, err := prof.start(stderr)
	if err != nil {
		return err
	}
	defer stopProf()
	mm, err := psk.ReadCSVFile(*masked, nil)
	if err != nil {
		return inputErr(fmt.Errorf("masked file: %w", err))
	}
	ext, err := psk.ReadCSVFile(*external, nil)
	if err != nil {
		return inputErr(fmt.Errorf("external file: %w", err))
	}
	qis := splitList(*qi)
	confs := splitList(*conf)

	// The CLI attack matches released values directly: the external
	// file is expected to hold values at the same granularity as the
	// release (pre-generalize it with pskanon's hierarchies if needed).
	in := &psk.Intruder{External: ext, IDAttr: *idAttr, QIs: qis}
	links, err := in.Attack(mm, confs)
	if err != nil {
		return err
	}
	sum := psk.SummarizeAttack(links)
	fmt.Fprintf(stdout, "individuals: %d\n", sum.Individuals)
	fmt.Fprintf(stdout, "linked to at least one released record: %d\n", sum.Linked)
	fmt.Fprintf(stdout, "uniquely identified (identity disclosure): %d\n", sum.UniquelyIdentified)
	fmt.Fprintf(stdout, "learned a confidential value (attribute disclosure): %d\n", sum.AttributeDisclosed)
	fmt.Fprintf(stdout, "max identity risk: %.3f\n", sum.MaxIdentityRisk)
	fmt.Fprintf(stdout, "expected re-identifications: %.2f\n", sum.ExpectedReidentifications)
	if *verbose {
		sort.Slice(links, func(i, j int) bool { return links[i].ID < links[j].ID })
		for _, l := range links {
			attrs := make([]string, 0, len(l.Learned))
			for a := range l.Learned {
				attrs = append(attrs, a)
			}
			sort.Strings(attrs)
			for _, a := range attrs {
				fmt.Fprintf(stdout, "  LEAK: %s has %s = %s\n", l.ID, a, l.Learned[a])
			}
		}
	}
	return nil
}
