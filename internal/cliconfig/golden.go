package cliconfig

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
)

// Help-text goldens: every CLI pins its full flag surface (names, defaults,
// usage text) against a checked-in golden file, so an accidental rename or
// default change in the shared bundles fails a test instead of silently
// breaking someone's scripts. Machine-dependent defaults are replaced by
// stable placeholders before comparison.

// UpdateEnv names the environment variable that switches CheckHelpGolden
// into rewrite mode: APSREPRO_UPDATE_GOLDENS=1 go test ./cmd/... refreshes
// every help golden in place.
const UpdateEnv = "APSREPRO_UPDATE_GOLDENS"

var defaultNRe = regexp.MustCompile(`\(default \d+\)`)

// HelpText renders fs's flag defaults (the -h listing body) with
// machine-dependent values normalized: the resolved cache root becomes
// $APSREPRO_CACHE_DEFAULT, and a GOMAXPROCS-derived -parallel default
// becomes (default $NPROC). The result is stable across machines, so it
// can be compared against a checked-in golden.
func HelpText(fs *flag.FlagSet) string {
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	fs.PrintDefaults()
	out := buf.String()
	if root := DefaultRoot(); root != "" {
		out = strings.ReplaceAll(out, fmt.Sprintf("%q", root), "$APSREPRO_CACHE_DEFAULT")
	}
	// Only -parallel defaults to a core count; its "(default N)" lives on
	// the usage line after the "  -parallel int" header line.
	lines := strings.Split(out, "\n")
	for i, ln := range lines {
		if strings.HasPrefix(ln, "  -parallel") && i+1 < len(lines) {
			lines[i+1] = defaultNRe.ReplaceAllString(lines[i+1], "(default $$NPROC)")
		}
	}
	return strings.Join(lines, "\n")
}

// TB is the subset of testing.TB the golden checker needs (avoids
// importing testing into a non-test package).
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// CheckHelpGolden compares HelpText(fs) against the golden file, rewriting
// the file instead when UpdateEnv is set.
//
//apslint:allow reach test seam: the help-golden tests of five cmd packages call it
func CheckHelpGolden(t TB, fs *flag.FlagSet, goldenPath string) {
	t.Helper()
	got := HelpText(fs)
	if os.Getenv(UpdateEnv) != "" {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatalf("update golden %s: %v", goldenPath, err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden %s: %v (run with %s=1 to create it)", goldenPath, err, UpdateEnv)
	}
	if got != string(want) {
		t.Errorf("flag surface diverges from %s — if the change is intentional, rerun with %s=1\ngot:\n%s\nwant:\n%s",
			goldenPath, UpdateEnv, got, string(want))
	}
}
