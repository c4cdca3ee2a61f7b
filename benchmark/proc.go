package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// findRoot returns the repository root: the nearest ancestor of the working
// directory that holds the programs' sources. `go run -C benchmark .` and
// `go test` both start the harness inside benchmark/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "spcube", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cmd/spcube not found above the working directory: run the benchmark from a checkout of the repository")
		}
		dir = parent
	}
}

// buildPrograms compiles cmd/spcube and cmd/spserve into binDir. The go
// tool's cache makes this cheap when nothing changed, so it runs every
// time and a stale binary cannot be measured by accident. The time is
// reported as harness.build_s and is part of no other metric.
func buildPrograms(ctx context.Context, root, binDir string) (time.Duration, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return 0, err
	}
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", binDir+string(filepath.Separator), "./cmd/spcube", "./cmd/spserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("building the programs: %v\n%s", err, out)
	}
	return time.Since(start), nil
}

// cubeRun is one spcube execution as the operating system saw it.
type cubeRun struct {
	Wall   float64 // seconds, process start to exit
	CPU    float64 // seconds, user+sys
	RSSMB  float64 // ru_maxrss
	SHA256 string  // of the output CSV
	Stats  string  // the program's stats line
}

// launchFlag makes the harness binary act as a launcher: run the command
// that follows, wait for it, and report its wall time and rusage as one JSON
// line on file descriptor 3.
//
// The launcher exists because of how Linux accounts ru_maxrss: a process
// started with fork+exec inherits its parent's peak RSS as its own starting
// peak. The harness holds the reference maps — hundreds of MB — so a
// program it started directly would report the harness's peak, not its own.
// The launcher is a fresh process of a few MB, so what it starts reports
// the truth.
const launchFlag = "-launch"

// launched is the launcher's report.
type launched struct {
	WallS    float64 `json:"wall_s"`
	CPUS     float64 `json:"cpu_s"`
	MaxRSSKB int64   `json:"maxrss_kb"`
}

// launch is the launcher's main. It returns the process exit code.
func launch(argv []string) int {
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "launch:", err)
		return 1
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		fmt.Fprintln(os.Stderr, "launch: no rusage from the operating system")
		return 1
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	report := os.NewFile(3, "report")
	defer report.Close()
	if err := json.NewEncoder(report).Encode(launched{wall.Seconds(), tv(ru.Utime) + tv(ru.Stime), ru.Maxrss}); err != nil {
		fmt.Fprintln(os.Stderr, "launch:", err)
		return 1
	}
	return 0
}

// runCube executes spcube -in batch -o out with the defaults a user gets
// plus the workload's flags, through the launcher.
func runCube(ctx context.Context, bin, tmp, in, out string, flags []string) (cubeRun, error) {
	self, err := os.Executable()
	if err != nil {
		return cubeRun{}, err
	}
	args := append([]string{launchFlag, bin, "-in", in, "-o", out}, flags...)
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	pr, pw, err := os.Pipe()
	if err != nil {
		return cubeRun{}, err
	}
	defer pr.Close()
	cmd.ExtraFiles = []*os.File{pw}
	err = cmd.Start()
	pw.Close()
	if err != nil {
		return cubeRun{}, err
	}
	var rep launched
	decErr := json.NewDecoder(pr).Decode(&rep)
	if err := cmd.Wait(); err != nil {
		return cubeRun{}, fmt.Errorf("spcube %s: %v: %s", strings.Join(args[2:], " "), err, stderr.String())
	}
	if decErr != nil {
		return cubeRun{}, fmt.Errorf("spcube: reading the launcher's report: %w", decErr)
	}
	sum, err := fileSHA256(out)
	if err != nil {
		return cubeRun{}, err
	}
	return cubeRun{
		Wall:   rep.WallS,
		CPU:    rep.CPUS,
		RSSMB:  float64(rep.MaxRSSKB) / 1024, // Linux reports KiB
		SHA256: sum,
		Stats:  strings.TrimSpace(stderr.String()),
	}, nil
}

// server is a running spserve.
type server struct {
	cmd    *exec.Cmd
	URL    string
	Ready  time.Duration // spawn to first 200 on /healthz
	stderr bytes.Buffer
	exited chan error // receives cmd.Wait's result; nil once reaped
}

// startServer spawns spserve on a free port and waits until it answers
// /healthz. On any error the process is gone before it returns.
func startServer(ctx context.Context, bin, tmp, in string, minSup int) (*server, error) {
	addrFile := filepath.Join(tmp, "spserve.addr")
	os.Remove(addrFile)
	args := []string{"-in", in, "-addr", "127.0.0.1:0", "-addr-file", addrFile}
	if minSup > 1 {
		args = append(args, "-minsup", strconv.Itoa(minSup))
	}
	s := &server{cmd: exec.Command(bin, args...)}
	s.cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	s.cmd.Stderr = &s.stderr
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	exited := make(chan error, 1)
	go func() { exited <- s.cmd.Wait() }()
	s.exited = exited

	client := &http.Client{Timeout: time.Second}
	deadline := time.After(60 * time.Second)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case err := <-exited:
			s.exited = nil
			return nil, fmt.Errorf("spserve exited before it was ready: %v: %s", err, s.stderr.String())
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-deadline:
			s.stop()
			return nil, errors.New("spserve not ready within 60 s")
		case <-tick.C:
		}
		if s.URL == "" {
			addr, err := os.ReadFile(addrFile)
			if err != nil || len(addr) == 0 {
				continue
			}
			s.URL = "http://" + string(addr)
		}
		resp, err := client.Get(s.URL + "/healthz")
		if err != nil {
			continue
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			s.Ready = time.Since(start)
			return s, nil
		}
	}
}

// peakRSSMB reads the server's VmHWM.
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop interrupts the server, waits for it, and kills it if it lingers. It
// is safe to call more than once.
func (s *server) stop() {
	if s.exited == nil {
		return
	}
	s.cmd.Process.Signal(os.Interrupt)
	select {
	case <-s.exited:
	case <-time.After(5 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
	s.exited = nil
}
