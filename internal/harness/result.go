package harness

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
)

// ResultSchema identifies the JSON layout of a Report. Bump on any
// incompatible change to Report/Result/Table.
const ResultSchema = "aqueue/harness-results/v1"

// Result is one experiment run's structured outcome. Experiments fill
// Tables and Metrics; the pool fills Name, Params, WallNS, and Error.
type Result struct {
	Name   string `json:"name"`
	Params Params `json:"params"`
	// Tables are the rendered figure/table rows, in the order the paper
	// presents them.
	Tables []*Table `json:"tables,omitempty"`
	// Metrics are headline scalars (rates in Gbit/s, fairness indices,
	// relative deltas in percent) keyed by a stable name.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// WallNS is the wall-clock duration of the run in nanoseconds.
	WallNS int64 `json:"wall_ns"`
	// Error is the failure (or recovered panic) of the run, empty on
	// success. A failed run still occupies its slot in the report so a
	// sweep's output always has one entry per requested job.
	Error string `json:"error,omitempty"`
}

// Rendered concatenates the textual form of the result's tables.
func (r *Result) Rendered() string {
	var out string
	for _, t := range r.Tables {
		out += t.Render() + "\n"
	}
	return out
}

// Fingerprint digests everything deterministic about a result — name,
// params, tables, metrics, error — and excludes wall time. Two runs of the
// same (experiment, seed) must fingerprint identically regardless of what
// else runs in the process.
func Fingerprint(r *Result) string {
	c := *r
	c.WallNS = 0
	buf, err := json.Marshal(&c)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	return string(buf)
}

// Report is the serialized outcome of a batch of runs.
type Report struct {
	Schema     string    `json:"schema"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Workers    int       `json:"workers"`
	Results    []*Result `json:"results"`
}

// NewReport wraps results run under the given worker count.
func NewReport(workers int, results []*Result) *Report {
	return &Report{
		Schema:     ResultSchema,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		Results:    results,
	}
}

// WriteJSON writes the indented JSON form.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteJSONFile writes the report to path (0644, truncating).
func (r *Report) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
