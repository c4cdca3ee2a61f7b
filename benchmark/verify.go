package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ops counts what the run attempted and what failed: CLI runs, server
// starts, queries, ingest cycles and verification checks. The first few
// failures are kept verbatim for the log.
type ops struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	first             []string
}

// check records one attempted operation and, when err is non-nil, its
// failure. It returns whether the operation succeeded.
func (o *ops) check(err error) bool {
	o.attempted.Add(1)
	if err == nil {
		return true
	}
	o.failed.Add(1)
	o.mu.Lock()
	if len(o.first) < 10 {
		o.first = append(o.first, err.Error())
	}
	o.mu.Unlock()
	return false
}

// fileSHA256 hashes a file.
func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// verifyCube checks a cube CSV (as spcube -o writes it) against the batch
// reference: every row of a reference cuboid must be a reference group with
// exactly its count, and every reference group must appear once. Rows of
// other cuboids are only counted. It returns the number of groups read.
func (in *inputs) verifyCube(r io.Reader) (groups int, err error) {
	br := bufio.NewReaderSize(r, 1<<20)
	header, err := br.ReadBytes('\n')
	if err != nil {
		return 0, fmt.Errorf("cube output: reading header: %w", err)
	}
	if got, want := len(bytes.Split(bytes.TrimSpace(header), []byte(","))), in.d+1; got != want {
		return 0, fmt.Errorf("cube output: header has %d columns, want %d", got, want)
	}
	matched := 0
	for {
		line, err := br.ReadSlice('\n')
		if err == io.EOF && len(line) == 0 {
			break
		}
		if err != nil && err != io.EOF {
			return groups, fmt.Errorf("cube output: %w", err)
		}
		line = bytes.TrimRight(line, "\r\n")
		cut := bytes.LastIndexByte(line, ',')
		if cut < 0 {
			return groups, fmt.Errorf("cube output: malformed row %q", line)
		}
		groups++
		key := line[:cut]
		if !in.refMask[keyMask(key)] {
			continue
		}
		want, ok := in.batchRef[string(key)]
		if !ok {
			return groups, fmt.Errorf("cube output: group %s is not in the reference cuboid", key)
		}
		got, perr := strconv.ParseFloat(string(line[cut+1:]), 64)
		if perr != nil || got != float64(want) {
			return groups, fmt.Errorf("cube output: group %s = %s, reference %d", key, line[cut+1:], want)
		}
		matched++
	}
	if matched != len(in.batchRef) {
		return groups, fmt.Errorf("cube output: %d rows matched %d reference groups", matched, len(in.batchRef))
	}
	return groups, nil
}

// answer is the wire form of a query response.
type answer struct {
	Op     string  `json:"op"`
	Found  bool    `json:"found"`
	Value  float64 `json:"value"`
	Groups []struct {
		Group []string `json:"group"`
		Value float64  `json:"value"`
	} `json:"groups"`
	Error string `json:"error"`
}

// verifyAnswer checks a response against the served reference. exact is
// true while nothing is being ingested: values must equal the reference and
// membership must match. With a writer running (append-only), counts only
// grow: a value may exceed the reference and a group may have crossed the
// iceberg threshold, but nothing the reference holds may be missing or
// smaller.
func (in *inputs) verifyAnswer(q *query, a *answer, exact bool) error {
	if a.Error != "" {
		return fmt.Errorf("%s %v: server error %q", q.Op, q.Group, a.Error)
	}
	// value checks one returned (group, value) pair of a reference cuboid.
	value := func(key string, got float64) error {
		want, ok := in.serveRef[key]
		switch {
		case !ok && exact:
			return fmt.Errorf("%s %v: returned group %s is not in the reference", q.Op, q.Group, key)
		case exact && (want < in.minSup || got != float64(want)):
			return fmt.Errorf("%s %v: group %s = %v, reference %d (minsup %d)", q.Op, q.Group, key, got, want, in.minSup)
		case got < float64(want) || got < float64(in.minSup):
			return fmt.Errorf("%s %v: group %s = %v, below reference %d", q.Op, q.Group, key, got, want)
		}
		return nil
	}
	switch q.Op {
	case "point":
		want := in.serveRef[q.key]
		if present := want >= in.minSup; present && !a.Found || exact && !present && a.Found {
			return fmt.Errorf("point %v: found=%v, reference count %d (minsup %d)", q.Group, a.Found, want, in.minSup)
		}
		if a.Found {
			return value(q.key, a.Value)
		}
		return nil
	case "rollup":
		got := make(map[string]float64, len(a.Groups))
		for _, g := range a.Groups {
			got[strings.Join(g.Group, ",")] = g.Value
		}
		// Walk the chain the server walks: drop the highest grouped
		// dimension until the apex. Every step is a reference cuboid when
		// the queried group lies on the finest cuboid's chain; steps that
		// are not are skipped.
		g := append([]string(nil), q.Group...)
		for {
			key := strings.Join(g, ",")
			if in.refMask[keyMask([]byte(key))] {
				v, ok := got[key]
				if present := in.serveRef[key] >= in.minSup; present && !ok || exact && !present && ok {
					return fmt.Errorf("rollup %v: step %s present=%v, reference count %d", q.Group, key, ok, in.serveRef[key])
				}
				if ok {
					if err := value(key, v); err != nil {
						return err
					}
				}
			}
			j := len(g) - 1
			for j >= 0 && g[j] == "*" {
				j--
			}
			if j < 0 {
				return nil
			}
			g[j] = "*"
		}
	case "slice":
		seen := false
		for _, g := range a.Groups {
			for j, v := range q.Group {
				if v != "?" && v != g.Group[j] {
					return fmt.Errorf("slice %v: returned group %v is outside the slice", q.Group, g.Group)
				}
			}
			key := strings.Join(g.Group, ",")
			if err := value(key, g.Value); err != nil {
				return err
			}
			seen = seen || key == q.key
		}
		if in.serveRef[q.key] >= in.minSup && !seen {
			return fmt.Errorf("slice %v: group %s missing from the answer", q.Group, q.key)
		}
		return nil
	case "topk":
		for i, g := range a.Groups {
			if err := value(strings.Join(g.Group, ","), g.Value); err != nil {
				return err
			}
			if i > 0 && g.Value > a.Groups[i-1].Value {
				return fmt.Errorf("topk %v: answer not in descending order", q.Group)
			}
		}
		n := len(a.Groups)
		if n == 0 || n > q.K {
			return fmt.Errorf("topk %v: %d groups returned for k=%d", q.Group, n, q.K)
		}
		if min := in.topkMin[keyMask([]byte(q.key))]; a.Groups[n-1].Value < float64(min) {
			return fmt.Errorf("topk %v: last value %v below the reference's k-th largest %d", q.Group, a.Groups[n-1].Value, min)
		}
		return nil
	}
	return fmt.Errorf("unknown op %q", q.Op)
}
