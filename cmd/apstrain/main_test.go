package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cliconfig"
)

// TestHelpGolden pins apstrain's full flag surface — names, defaults, and
// usage text, shared bundles included — against the checked-in golden.
// Refresh with APSREPRO_UPDATE_GOLDENS=1 go test ./cmd/...
func TestHelpGolden(t *testing.T) {
	fs := flag.NewFlagSet("apstrain", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	addFlags(fs)
	cliconfig.CheckHelpGolden(t, fs, "testdata/help.golden")
}

// TestTrainStdoutGolden pins apstrain's stdout in the plain and -report
// modes at a two-epoch training budget. Each golden is the output of
// `apstrain [-report] -epochs 2 -parallel 2 -no-cache`.
func TestTrainStdoutGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		extra []string
	}{{"plain", nil}, {"report", []string{"-report"}}} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("apstrain", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			var out bytes.Buffer
			args := append(tc.extra, "-epochs", "2", "-parallel", "2", "-no-cache")
			if err := run(fs, args, &out); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "stdout-"+tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("stdout diverges from the golden\ngot:\n%s\nwant:\n%s", out.Bytes(), want)
			}
		})
	}
}
