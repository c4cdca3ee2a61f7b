package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/spcube/spcube/internal/mr"
)

// RunRecord captures one algorithm execution inside an experiment: the raw
// per-round metrics behind one plotted point. Delivered through
// Config.Collect, in execution order.
type RunRecord struct {
	// Algo is the algorithm (series) name, e.g. "SP-Cube".
	Algo string `json:"algo"`
	// InputTuples is the size of the relation the run consumed.
	InputTuples int `json:"inputTuples"`
	// DNF marks a failed run (reducer OOM under the Hive model, or
	// exhausted retries under fault injection).
	DNF bool `json:"dnf,omitempty"`
	// Metrics is the run's full per-round metrics document (nil only when
	// the run produced no metrics at all).
	Metrics *mr.JobMetrics `json:"metrics,omitempty"`
}

// Collector accumulates RunRecords; its Collect method satisfies
// Config.Collect.
type Collector struct {
	Runs []RunRecord
}

// Collect appends one record.
func (c *Collector) Collect(r RunRecord) { c.Runs = append(c.Runs, r) }

// Environment records the run conditions that do not affect the
// deterministic results but matter for interpreting wall-clock fields.
type Environment struct {
	GoVersion   string `json:"goVersion"`
	Parallelism int    `json:"parallelism"`
	Faults      string `json:"faults,omitempty"`
	MaxAttempts int    `json:"maxAttempts,omitempty"`
	// GeneratedAt is the document creation time (RFC 3339, UTC).
	GeneratedAt string `json:"generatedAt"`
}

// MetricsDoc is the machine-readable result of one spbench invocation: the
// figures exactly as rendered plus the raw per-run metrics they were
// derived from. Its schema version is shared with the engine-level metrics
// document (mr.MetricsSchemaVersion), whose determinism contract applies:
// everything except the environment block and the fields mr.VolatileKeys
// names is bit-for-bit identical at any parallelism, and only the recovery
// fields ("retries", "wastedBytes", "attempts", "reexecutions"/
// "mapReexecutions", "fetchFailures", "speculativeLaunched"/"Won"/"Killed")
// additionally differ between faulted and fault-free runs.
type MetricsDoc struct {
	SchemaVersion int    `json:"schemaVersion"`
	Tool          string `json:"tool"`
	// Experiment is the experiment id ("fig6", "all", ...).
	Experiment  string      `json:"experiment"`
	Workers     int         `json:"workers"`
	Seed        int64       `json:"seed"`
	Scale       float64     `json:"scale"`
	Environment Environment `json:"environment"`
	Figures     []Figure    `json:"figures"`
	Runs        []RunRecord `json:"runs"`
}

// NewMetricsDoc assembles the document for one experiment invocation.
func NewMetricsDoc(cfg Config, experiment string, figures []Figure, runs []RunRecord) *MetricsDoc {
	cfg.defaults()
	env := Environment{
		GoVersion:   runtime.Version(),
		Parallelism: cfg.Parallelism,
		MaxAttempts: cfg.MaxAttempts,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
	if cfg.Faults != nil {
		env.Faults = cfg.Faults.String()
	}
	if figures == nil {
		figures = []Figure{}
	}
	if runs == nil {
		runs = []RunRecord{}
	}
	return &MetricsDoc{
		SchemaVersion: mr.MetricsSchemaVersion,
		Tool:          "spbench",
		Experiment:    experiment,
		Workers:       cfg.Workers,
		Seed:          cfg.seed(),
		Scale:         cfg.Scale,
		Environment:   env,
		Figures:       figures,
		Runs:          runs,
	}
}

// WriteMetricsDoc writes the document as indented JSON.
func WriteMetricsDoc(w io.Writer, doc *MetricsDoc) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: write metrics: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// acceptSchemaVersion reports whether v is the current metrics schema
// version, returning an error that names both the offending version and the
// accepted one.
func acceptSchemaVersion(v int, where string) error {
	if v != mr.MetricsSchemaVersion {
		return fmt.Errorf("bench: metrics document: %s schemaVersion %d, want %d",
			where, v, mr.MetricsSchemaVersion)
	}
	return nil
}

// ValidateMetricsJSON structurally validates a serialized MetricsDoc: the
// schema version (exactly mr.MetricsSchemaVersion, both at the top level
// and inside each run's embedded engine metrics), the presence and types of every required
// top-level field, and the shape of each figure and run. It is the check
// behind `spbench -validate` and the CI bench-json smoke leg.
func ValidateMetricsJSON(data []byte) error {
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("bench: metrics document: %w", describeJSONError(data, err))
	}
	v, ok := doc["schemaVersion"].(float64)
	if !ok {
		return fmt.Errorf("bench: metrics document: missing numeric schemaVersion")
	}
	if err := acceptSchemaVersion(int(v), "top-level"); err != nil {
		return err
	}
	for _, key := range []string{"tool", "experiment"} {
		if s, ok := doc[key].(string); !ok || s == "" {
			return fmt.Errorf("bench: metrics document: missing %s", key)
		}
	}
	for _, key := range []string{"workers", "seed", "scale"} {
		if _, ok := doc[key].(float64); !ok {
			return fmt.Errorf("bench: metrics document: missing numeric %s", key)
		}
	}
	env, ok := doc["environment"].(map[string]any)
	if !ok {
		return fmt.Errorf("bench: metrics document: missing environment")
	}
	if s, ok := env["goVersion"].(string); !ok || s == "" {
		return fmt.Errorf("bench: metrics document: environment missing goVersion")
	}
	figures, ok := doc["figures"].([]any)
	if !ok {
		return fmt.Errorf("bench: metrics document: missing figures array")
	}
	for i, f := range figures {
		fig, ok := f.(map[string]any)
		if !ok {
			return fmt.Errorf("bench: metrics document: figure %d is not an object", i)
		}
		id, _ := fig["id"].(string)
		if id == "" {
			return fmt.Errorf("bench: metrics document: figure %d has no id", i)
		}
		series, ok := fig["series"].([]any)
		if !ok {
			return fmt.Errorf("bench: metrics document: figure %s has no series array", id)
		}
		for _, s := range series {
			ser, ok := s.(map[string]any)
			if !ok {
				return fmt.Errorf("bench: metrics document: figure %s has a non-object series", id)
			}
			if name, _ := ser["name"].(string); name == "" {
				return fmt.Errorf("bench: metrics document: figure %s has an unnamed series", id)
			}
			points, ok := ser["points"].([]any)
			if !ok {
				return fmt.Errorf("bench: metrics document: figure %s series %v has no points array", id, ser["name"])
			}
			for j, p := range points {
				pt, ok := p.(map[string]any)
				if !ok {
					return fmt.Errorf("bench: metrics document: figure %s point %d is not an object", id, j)
				}
				for _, key := range []string{"x", "y"} {
					if _, ok := pt[key].(float64); !ok {
						return fmt.Errorf("bench: metrics document: figure %s point %d lacks numeric %s", id, j, key)
					}
				}
			}
		}
	}
	runs, ok := doc["runs"].([]any)
	if !ok {
		return fmt.Errorf("bench: metrics document: missing runs array")
	}
	for i, r := range runs {
		run, ok := r.(map[string]any)
		if !ok {
			return fmt.Errorf("bench: metrics document: run %d is not an object", i)
		}
		if algo, _ := run["algo"].(string); algo == "" {
			return fmt.Errorf("bench: metrics document: run %d has no algo", i)
		}
		m, present := run["metrics"]
		if !present {
			continue
		}
		metrics, ok := m.(map[string]any)
		if !ok {
			return fmt.Errorf("bench: metrics document: run %d metrics is not an object", i)
		}
		mv, ok := metrics["schemaVersion"].(float64)
		if !ok {
			return fmt.Errorf("bench: metrics document: run %d metrics has no numeric schemaVersion", i)
		}
		if err := acceptSchemaVersion(int(mv), fmt.Sprintf("run %d metrics", i)); err != nil {
			return err
		}
		if _, ok := metrics["rounds"].([]any); !ok {
			return fmt.Errorf("bench: metrics document: run %d metrics has no rounds array", i)
		}
	}
	return nil
}

// describeJSONError rewrites a json.Unmarshal error into one that names
// where in the document the problem is — line and column for syntax errors,
// the Go field path for type mismatches — instead of the bare byte offset
// (or no location at all) the standard error carries.
func describeJSONError(data []byte, err error) error {
	var offset int64 = -1
	detail := err.Error()
	switch e := err.(type) {
	case *json.SyntaxError:
		offset = e.Offset
	case *json.UnmarshalTypeError:
		offset = e.Offset
		path := e.Type.String()
		if e.Struct != "" || e.Field != "" {
			path = e.Field
		}
		detail = fmt.Sprintf("field %s: cannot decode JSON %s", path, e.Value)
	default:
		return err
	}
	line, col := 1, 1
	for i := int64(0); i < offset && i < int64(len(data)); i++ {
		if data[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Errorf("line %d, column %d: %s", line, col, detail)
}

// StripVolatile removes the keys outside the determinism contract —
// mr.VolatileKeys, this document's own environment provenance, plus any
// extras, e.g. "retries"/"wastedBytes"/"attempts" when comparing a faulted
// run against a fault-free one — from a JSON document at every nesting level
// and re-marshals it canonically (sorted keys, no indentation), so two
// deterministically-equal documents compare byte-equal.
func StripVolatile(data []byte, extra ...string) ([]byte, error) {
	drop := map[string]bool{"time": true, "generatedAt": true, "goVersion": true, "parallelism": true}
	for _, k := range append(extra, mr.VolatileKeys...) {
		drop[k] = true
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("bench: strip volatile: %w", err)
	}
	stripVolatile(doc, drop)
	return json.Marshal(doc)
}

func stripVolatile(v any, drop map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, sub := range x {
			if drop[k] {
				delete(x, k)
				continue
			}
			stripVolatile(sub, drop)
		}
	case []any:
		for _, sub := range x {
			stripVolatile(sub, drop)
		}
	}
}
