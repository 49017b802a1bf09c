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

// TestHelpGolden pins apsattack's full flag surface — names, defaults, and
// usage text, shared bundles included — against the checked-in golden.
// Refresh with APSREPRO_UPDATE_GOLDENS=1 go test ./cmd/...
func TestHelpGolden(t *testing.T) {
	fs := flag.NewFlagSet("apsattack", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	addFlags(fs)
	cliconfig.CheckHelpGolden(t, fs, "testdata/help.golden")
}

// TestAttackStdoutGolden pins apsattack's stdout for the gaussian, fgsm and
// blackbox arms at a two-epoch training budget. Each golden is the output of
// `apsattack -attack <kind> -epochs 2 -no-cache`; the attack arms may be
// restructured, but their printed numbers may not move.
func TestAttackStdoutGolden(t *testing.T) {
	for _, kind := range []string{"gaussian", "fgsm", "blackbox"} {
		t.Run(kind, func(t *testing.T) {
			fs := flag.NewFlagSet("apsattack", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			var out bytes.Buffer
			args := []string{"-attack", kind, "-epochs", "2", "-parallel", "2", "-no-cache"}
			if err := run(fs, args, &out); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "stdout-"+kind+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("stdout diverges from the golden\ngot:\n%s\nwant:\n%s", out.Bytes(), want)
			}
		})
	}
}
