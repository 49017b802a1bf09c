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

// TestAttackStdoutGolden pins apsattack's stdout for every attack arm at a
// two-epoch training budget, plus the -report and -precision f32 modes.
// Each golden is the output of `apsattack -attack <kind> [extra] -epochs 2
// -parallel 2 -no-cache`; the attack arms may be restructured, but their
// printed numbers may not move.
func TestAttackStdoutGolden(t *testing.T) {
	cases := []struct {
		name, kind string
		extra      []string
	}{
		{"gaussian", "gaussian", nil},
		{"fgsm", "fgsm", nil},
		{"blackbox", "blackbox", nil},
		{"pgd", "pgd", nil},
		{"gaussian-report", "gaussian", []string{"-report"}},
		{"fgsm-f32", "fgsm", []string{"-precision", "f32"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("apsattack", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			var out bytes.Buffer
			args := append([]string{"-attack", tc.kind}, tc.extra...)
			args = append(args, "-epochs", "2", "-parallel", "2", "-no-cache")
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
