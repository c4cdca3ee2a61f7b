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
// "mapReexecutions", "fetchFailures") additionally differ between faulted
// and fault-free runs.
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

// ValidateMetricsJSON validates a serialized MetricsDoc: it must decode into
// the document's own types, carry exactly mr.MetricsSchemaVersion both at
// the top level and inside each run's embedded engine metrics, name its
// tool, experiment, Go version, figures, series and runs, and hold every
// array and top-level number it is written with. It is the check behind
// `spbench -validate` and the CI bench-json smoke leg.
func ValidateMetricsJSON(data []byte) error {
	// The document's types, except where a zero value would hide an absent
	// field: the three numbers, and a run's metrics, whose schema version
	// and rounds only the marshalled form carries.
	var doc struct {
		MetricsDoc
		Workers *int     `json:"workers"`
		Seed    *int64   `json:"seed"`
		Scale   *float64 `json:"scale"`
		Runs    []struct {
			Algo    string `json:"algo"`
			Metrics *struct {
				SchemaVersion int               `json:"schemaVersion"`
				Rounds        []json.RawMessage `json:"rounds"`
			} `json:"metrics"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("bench: metrics document: %w", describeJSONError(data, err))
	}
	bad := func(format string, args ...any) error {
		return fmt.Errorf("bench: metrics document: "+format, args...)
	}
	if err := acceptSchemaVersion(doc.SchemaVersion, "top-level"); err != nil {
		return err
	}
	switch {
	case doc.Tool == "":
		return bad("missing tool")
	case doc.Experiment == "":
		return bad("missing experiment")
	case doc.Workers == nil || doc.Seed == nil || doc.Scale == nil:
		return bad("missing numeric workers, seed or scale")
	case doc.Environment.GoVersion == "":
		return bad("environment missing goVersion")
	case doc.Figures == nil:
		return bad("missing figures array")
	case doc.Runs == nil:
		return bad("missing runs array")
	}
	for i, fig := range doc.Figures {
		switch {
		case fig.ID == "":
			return bad("figure %d has no id", i)
		case fig.Series == nil:
			return bad("figure %s has no series array", fig.ID)
		}
		for _, ser := range fig.Series {
			switch {
			case ser.Name == "":
				return bad("figure %s has an unnamed series", fig.ID)
			case ser.Points == nil:
				return bad("figure %s series %s has no points array", fig.ID, ser.Name)
			}
		}
	}
	for i, run := range doc.Runs {
		if run.Algo == "" {
			return bad("run %d has no algo", i)
		}
		if m := run.Metrics; m != nil {
			if err := acceptSchemaVersion(m.SchemaVersion, fmt.Sprintf("run %d metrics", i)); err != nil {
				return err
			}
			if m.Rounds == nil {
				return bad("run %d metrics has no rounds array", i)
			}
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
