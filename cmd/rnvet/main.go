// Command rnvet is the repository's invariant checker: a multichecker over
// the internal/analysis pass suite that machine-checks the NVM-persistence,
// HTM-safety and cross-package concurrency rules the paper's designs depend
// on (persistcheck, htmsafe, lockflush, fencecheck, atomicfield, lockorder,
// spinblock — see DESIGN.md §11 and §16, or run `rnvet -list`).
//
// Usage:
//
//	rnvet [-passes atomicfield,lockorder,spinblock] [packages...]
//
// Packages default to ./... and accept any `go list` pattern. rnvet exits 1
// when any diagnostic survives the annotation filters, 2 on load failure —
// so `make lint` gates every PR on a clean run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rntree/internal/analysis"
)

func main() {
	passNames := flag.String("passes", "", "comma-separated subset of passes to run (default: all)")
	listPasses := flag.Bool("list", false, "list the available passes and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: rnvet [flags] [packages...]\n\nPasses:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(flag.CommandLine.Output(), "\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listPasses {
		for _, a := range analysis.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := analysis.All()
	if *passNames != "" {
		var err error
		analyzers, err = analysis.ByName(*passNames)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rnvet:", err)
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	prog, err := analysis.Load("", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rnvet:", err)
		os.Exit(2)
	}

	diags := analysis.Run(prog, analyzers)
	for _, d := range diags {
		pos := prog.Fset.Position(d.Pos)
		fmt.Printf("%s: [%s] %s\n", pos, d.Pass, d.Message)
	}
	if len(diags) > 0 {
		names := make([]string, len(analyzers))
		for i, a := range analyzers {
			names[i] = a.Name
		}
		fmt.Fprintf(os.Stderr, "rnvet: %d finding(s) from %s\n", len(diags), strings.Join(names, ","))
		os.Exit(1)
	}
}
