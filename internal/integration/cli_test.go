package integration

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIExitCodes is the one table pinning the exit-code contract of the
// three binaries that share internal/cli, on the real executables: a bad
// value for any shared flag is a usage error — exit 2, the message names
// the flag and the value, nothing reaches stdout, and the input is never
// opened (it does not exist, and no message says so) — while a failure
// after validation exits 1. A retired flag is an unknown one: exit 2.
func TestCLIExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the three binaries")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"github.com/spcube/spcube/cmd/spcube", "github.com/spcube/spcube/cmd/spbench", "github.com/spcube/spcube/cmd/spserve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// The binaries run in bin and name their files relative to it, so the
	// subtest names, built from the arguments, carry no random temp-dir part.
	missing, input := "missing.csv", "in.csv"
	if err := os.WriteFile(filepath.Join(bin, input), []byte("a,b,m\nx,y,1\nx,z,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// What each binary is asked to do when the case adds nothing else: read
	// an input that does not exist (spbench has none; it gets a tiny sweep).
	base := map[string][]string{
		"spcube":  {"-in", missing},
		"spserve": {"-in", missing, "-addr", "127.0.0.1:0"},
		"spbench": {"-exp", "fig6", "-scale", "0.01"},
	}
	engine, spill, in := []string{"spcube", "spbench", "spserve"}, []string{"spcube", "spbench"}, []string{"spcube", "spserve"}

	cases := []struct {
		bins  []string
		args  []string
		code  int
		names []string // substrings stderr must contain
	}{
		{engine, []string{"-faults", "bogus"}, 2, []string{"-faults", "bogus"}},
		{in, []string{"-agg", "nope"}, 2, []string{"-agg", "nope"}},
		{in, []string{"-algo", "nope"}, 2, []string{"-algo", "nope", "pipesort"}},
		{spill, []string{"-spill-budget", "-7"}, 2, []string{"-spill-budget", "-7"}},
		{spill, []string{"-spill-codec", "zip", "-spill-budget", "0"}, 2, []string{"-spill-codec", "zip"}},
		{spill, []string{"-backend", "nope"}, 2, []string{"-backend", "nope"}},
		{engine, []string{"-k", "0"}, 2, []string{"-k 0"}},
		{engine, []string{"-k", "-3"}, 2, []string{"-k -3"}},
		{engine, []string{"-p", "-1"}, 2, []string{"-p -1"}},
		{engine, []string{"-max-attempts", "-1"}, 2, []string{"-max-attempts"}},
		{engine, []string{"-spec-slack", "0.01"}, 2, []string{"-spec-slack"}},
		{engine, []string{"-task-timeout", "1"}, 2, []string{"-task-timeout"}},
		{engine, []string{"-faults", "*:map:*:slow@2"}, 2, []string{"-faults", "slow"}},
		{spill, []string{"-merge-fan-in", "-4"}, 2, []string{"-merge-fan-in"}},
		{[]string{"spcube"}, []string{"-delta", missing, "-k", "0"}, 2, []string{"-k 0"}},
		{[]string{"spcube"}, []string{"-delta", missing, "-faults", "bogus"}, 2, []string{"-faults"}},
		{[]string{"spcube"}, []string{"-delta", input, "-in", ""}, 2, []string{"-in"}},
		{[]string{"spbench"}, []string{"-exp", "fig99"}, 2, []string{"fig99"}},
		{[]string{"spbench"}, []string{"-format", "xml"}, 2, []string{"-format", "xml"}},
		{[]string{"spbench"}, []string{"-scale", "0"}, 2, []string{"-scale 0"}},
		{[]string{"spbench"}, []string{"-scale", "-1"}, 2, []string{"-scale -1"}},
		{engine, []string{"-no-such-flag"}, 2, []string{"-no-such-flag"}},
		{engine, []string{"-h"}, 0, []string{"-faults"}},
		{in, nil, 1, []string{"missing.csv"}},
		{[]string{"spcube"}, []string{"-in", input, "-faults", "*:map:*:crash:0:*"}, 1, []string{"crash"}},
		{[]string{"spbench"}, []string{"-validate", missing}, 1, []string{"missing.csv"}},
	}
	for _, c := range cases {
		for _, name := range c.bins {
			args := append(append([]string(nil), base[name]...), c.args...)
			t.Run(name+" "+strings.Join(c.args, " "), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				cmd := exec.Command(filepath.Join(bin, name), args...)
				cmd.Dir = bin
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				code := 0
				var ee *exec.ExitError
				if err := cmd.Run(); errors.As(err, &ee) {
					code = ee.ExitCode()
				} else if err != nil {
					t.Fatal(err)
				}
				if code != c.code {
					t.Errorf("exit %d, want %d; stderr: %s", code, c.code, stderr.String())
				}
				for _, want := range c.names {
					if !strings.Contains(stderr.String(), want) {
						t.Errorf("stderr does not mention %q: %s", want, stderr.String())
					}
				}
				if c.code == 2 && strings.Contains(stderr.String(), "no such file") {
					t.Errorf("usage error reported after the input was opened: %s", stderr.String())
				}
				if c.code == 2 && stdout.Len() != 0 {
					t.Errorf("usage error wrote to stdout: %s", stdout.String())
				}
			})
		}
	}
}
