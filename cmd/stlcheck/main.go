// Command stlcheck evaluates an STL formula against a CSV trace (such as the
// output of `apsim -csv`), reporting boolean satisfaction and the
// quantitative robustness degree per step.
//
// Usage:
//
//	apsim -sim glucosym -fault -csv > trace.csv
//	stlcheck -trace trace.csv -formula 'F[0,12](true_bg > 180)'
//	stlcheck -trace trace.csv -formula 'true_bg < 70' -all
//
// Whole-trace summaries (-all) are cached content-addressed under -cache
// (default $APSREPRO_CACHE or ~/.cache/apsrepro), keyed by the trace bytes
// and the canonicalized formula — rerunning the same check on a long trace
// replays the stored summary instead of re-evaluating every step. Cache
// events are logged to stderr; -no-cache disables persistence. Single-step
// checks are evaluated directly (cheaper than any cache).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"repro/internal/artifact"
	"repro/internal/cliconfig"
	"repro/internal/stl"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "stlcheck:", err)
		os.Exit(1)
	}
}

func run() error {
	tracePath := flag.String("trace", "", "CSV trace file (header row = signal names)")
	formulaText := flag.String("formula", "", "STL formula, e.g. 'F[0,12](true_bg > 180)'")
	step := flag.Int("step", 0, "evaluation step")
	all := flag.Bool("all", false, "evaluate at every step and summarize")
	listSignals := flag.Bool("signals", false, "list the trace's signals and exit")
	cache := cliconfig.AddCache(flag.CommandLine)
	flag.Parse()

	if *tracePath == "" {
		return fmt.Errorf("missing -trace")
	}
	raw, err := os.ReadFile(*tracePath)
	if err != nil {
		return err
	}
	trace, err := stl.FromCSV(bytes.NewReader(raw))
	if err != nil {
		return err
	}

	if *listSignals {
		names := make([]string, 0, len(trace.Signals))
		for n := range trace.Signals {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%s (%d samples)\n", n, len(trace.Signals[n]))
		}
		return nil
	}
	if *formulaText == "" {
		return fmt.Errorf("missing -formula")
	}
	formula, err := stl.Parse(*formulaText)
	if err != nil {
		return err
	}

	if !*all {
		ok, err := formula.Eval(trace, *step)
		if err != nil {
			return err
		}
		rob, err := formula.Robustness(trace, *step)
		if err != nil {
			return err
		}
		fmt.Printf("step %d: %v (robustness %+.4g)\n", *step, verdict(ok), rob)
		return nil
	}

	summary, err := cachedSummary(cache.Open(log.Printf), raw, trace, formula)
	if err != nil {
		return err
	}
	os.Stdout.Write(summary)
	return nil
}

// cachedSummary returns the -all summary of formula over trace. The
// summary is a pure function of (trace bytes, formula), so it is cached
// like campaigns and monitors: the key fingerprints the exact inputs, and a
// hit replays the stored summary verbatim. A stored summary without its
// verdict line is corrupt and is re-evaluated.
func cachedSummary(store artifact.Store, raw []byte, trace *stl.MapTrace, formula stl.Formula) ([]byte, error) {
	key := artifact.Key{
		Kind:        "stlsummary",
		Version:     stl.SummaryFormatVersion,
		Fingerprint: artifact.Fingerprint("stlcheck", string(raw), formula.String()),
	}
	verdictLine := fmt.Sprintf("%q satisfied at ", formula.String())
	var summary []byte
	_, err := store.GetOrCreateFile(key,
		artifact.ReaderLoad(func(r io.Reader) error {
			var lerr error
			summary, lerr = io.ReadAll(r)
			if lerr == nil && !bytes.Contains(summary, []byte(verdictLine)) {
				lerr = fmt.Errorf("summary lacks its verdict line")
			}
			return lerr
		}),
		func() error {
			var buf bytes.Buffer
			summarizeAll(&buf, trace, formula)
			summary = buf.Bytes()
			return nil
		},
		func(w io.Writer) error {
			_, werr := w.Write(summary)
			return werr
		},
	)
	return summary, err
}

// summarizeAll evaluates the formula at every step and writes the summary —
// the exact text a cache hit replays.
func summarizeAll(w io.Writer, trace *stl.MapTrace, formula stl.Formula) {
	n := trace.Len()
	satisfied := 0
	firstViolation := -1
	for t := 0; t < n; t++ {
		ok, err := formula.Eval(trace, t)
		if err != nil {
			// Steps whose temporal window falls off the trace end are
			// reported and skipped.
			fmt.Fprintf(w, "step %d: not evaluable (%v)\n", t, err)
			continue
		}
		if ok {
			satisfied++
		} else if firstViolation < 0 {
			firstViolation = t
		}
	}
	fmt.Fprintf(w, "%q satisfied at %d/%d steps\n", formula.String(), satisfied, n)
	if firstViolation >= 0 {
		fmt.Fprintf(w, "first violation at step %d\n", firstViolation)
	}
}

func verdict(ok bool) string {
	if ok {
		return "SATISFIED"
	}
	return "VIOLATED"
}
