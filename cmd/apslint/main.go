// Command apslint runs the repo-invariant static-analysis suite
// (internal/lint) over the named packages and exits nonzero on any
// finding. It is the CI gate that turns the determinism and
// fingerprint-completeness contracts into compile-time properties. Run
// from the repository root with no package arguments, it loads the whole
// repository, the root module and the e2ebench module, which is the load
// the reach analyzer needs to see every caller:
//
//	go run ./cmd/apslint
//
// Findings are suppressed line-by-line with
//
//	//apslint:allow <analyzer> <reason>
//
// on the flagged line or the line above it; fpcomplete additionally
// honors `// fp:ignore <reason>` on struct fields. See the internal/lint
// package documentation for the analyzer catalogue.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	var (
		list     = flag.Bool("list", false, "describe the analyzers and exit")
		analyzer = flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: apslint [flags] [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All {
			fmt.Printf("%s\n\t%s\n\n", a.Name, strings.ReplaceAll(a.Doc, "\n", "\n\t"))
		}
		return
	}

	analyzers := lint.All
	if *analyzer != "" {
		analyzers = nil
		for _, name := range strings.Split(*analyzer, ",") {
			name = strings.TrimSpace(name)
			a := lint.ByName(name)
			if a == nil {
				fmt.Fprintf(os.Stderr, "apslint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	pkgs, err := lint.LoadPackages(".", flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "apslint: %v\n", err)
		os.Exit(2)
	}
	diags, err := lint.RunPackages(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "apslint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "apslint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "apslint: clean (%d packages, %d analyzers)\n", len(pkgs), len(analyzers))
}
