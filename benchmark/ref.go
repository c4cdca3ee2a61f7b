package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// refFlag makes the harness binary run the reference kernel and exit.
//
// The sizing box is a small shared guest whose speed drifts by 15–50 % over
// minutes, and a timing taken in a slow quarter of an hour cannot be told
// from a regression. The reference kernel is the yardstick laid beside every
// timing: a fixed piece of this harness's own code, of the same character as
// the programs (format and hash string keys, count them in a map, sort,
// render CSV), run in a fresh process between the timed phases. Timings are
// reported at the reference speed — multiplied by refNominalMS over the
// run's median reading — so that what moves a metric is the program, not the
// quarter of an hour. The readings themselves are harness.calib_ms.
const refFlag = "-refkernel"

// refNominalMS is the reference speed: the kernel's usual reading on the
// sizing box. It only fixes the scale of the normalised timings.
const refNominalMS = 300.0

// refRows sizes the kernel: about 0.3 s on the sizing box.
const refRows = 56000

// refKernel is the reference kernel, over the given number of generated rows.
func refKernel(rows int, out io.Writer) {
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	masks := referenceMasks(4)
	counts := make(map[string]int32)
	row := make([]string, 4)
	var key []byte
	for i := 0; i < rows; i++ {
		for j := range row {
			row[j] = strconv.Itoa(int(next() % 70000))
		}
		for _, m := range masks {
			key = groupKey(key, row, 4, m)
			counts[string(key)]++
		}
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var line []byte
	for _, k := range keys {
		line = append(line[:0], k...)
		line = append(line, ',')
		line = strconv.AppendInt(line, int64(counts[k]), 10)
		line = append(line, '\n')
		out.Write(line)
	}
}

// refMain is the harness binary's main under refFlag.
func refMain(rows string) int {
	n, err := strconv.Atoi(rows)
	if err != nil {
		fmt.Fprintln(os.Stderr, "refkernel:", err)
		return 2
	}
	refKernel(n, io.Discard)
	return 0
}

// readRef runs the reference kernel in a fresh process — the same heap and
// page-fault history every time — and returns its wall time in ms.
func readRef(ctx context.Context, rows int) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, self, refFlag, strconv.Itoa(rows))
	start := time.Now()
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("reference kernel: %v: %s", err, out)
	}
	return ms(time.Since(start)), nil
}
