// Package experiments defines one runnable experiment per table and
// figure in the paper's evaluation, plus the extension experiments
// (stack comparison, model ablations). Each experiment regenerates the
// corresponding artifact — the same rows or bar series the paper
// reports — on the simulated platform, and checks the paper's
// qualitative claims against the measured outcome.
package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"pmemsched/internal/core"
	"pmemsched/internal/trace"
	"pmemsched/internal/workflow"
)

// Finding is one paper claim checked against the reproduction.
type Finding struct {
	Name     string `json:"name"`
	Paper    string `json:"paper"`    // what the paper reports
	Measured string `json:"measured"` // what we measured
	Match    bool   `json:"match"`
	// Value is the number behind Measured for a catalogue claim (see
	// Claim.Check).
	Value float64 `json:"-"`
}

// Report is an experiment's rendered output plus its claim checks.
type Report struct {
	ID       string
	Title    string
	Findings []Finding
	// Tables retains every table added to the report, for structured
	// (CSV/JSON) export alongside the rendered text.
	Tables []*trace.Table

	body bytes.Buffer
}

// Section starts a new titled section in the report body.
func (r *Report) Section(title string) {
	fmt.Fprintf(&r.body, "\n### %s\n", title)
}

// Printf appends formatted text to the report body.
func (r *Report) Printf(format string, args ...any) {
	fmt.Fprintf(&r.body, format, args...)
}

// Table renders a table into the report body and retains it for
// structured export.
func (r *Report) Table(t *trace.Table) {
	r.Tables = append(r.Tables, t)
	_ = t.WriteText(&r.body)
	r.body.WriteByte('\n')
}

// WriteCSV writes every retained table as CSV, separated by blank
// lines, each preceded by a "# title" comment row.
func (r *Report) WriteCSV(w io.Writer) error {
	for _, t := range r.Tables {
		if _, err := fmt.Fprintf(w, "# %s: %s\n", r.ID, t.Title); err != nil {
			return err
		}
		if err := t.WriteCSV(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON writes the report (title, findings, tables) as one JSON
// document.
func (r *Report) WriteJSON(w io.Writer) error {
	type jsonTable struct {
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	doc := struct {
		ID       string      `json:"id"`
		Title    string      `json:"title"`
		Findings []Finding   `json:"findings"`
		Tables   []jsonTable `json:"tables"`
	}{ID: r.ID, Title: r.Title, Findings: r.Findings}
	for _, t := range r.Tables {
		doc.Tables = append(doc.Tables, jsonTable{Title: t.Title, Columns: t.Columns, Rows: t.Rows})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Chart renders a bar chart into the report body.
func (r *Report) Chart(title string, bars []trace.Bar) {
	_ = trace.BarChart(&r.body, title, bars, 46)
	r.body.WriteByte('\n')
}

// Check records a claim comparison.
func (r *Report) Check(name, paper, measured string, match bool) {
	r.Findings = append(r.Findings, Finding{Name: name, Paper: paper, Measured: measured, Match: match})
}

// Render writes the full report.
func (r *Report) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	if _, err := w.Write(r.body.Bytes()); err != nil {
		return err
	}
	if len(r.Findings) > 0 {
		t := &trace.Table{Title: "paper vs measured", Columns: []string{"claim", "paper", "measured", "match"}}
		for _, f := range r.Findings {
			mark := "YES"
			if !f.Match {
				mark = "no"
			}
			t.AddRow(f.Name, f.Paper, f.Measured, mark)
		}
		if err := t.WriteText(w); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Matched reports how many findings matched, out of how many.
func (r *Report) Matched() (ok, total int) {
	for _, f := range r.Findings {
		if f.Match {
			ok++
		}
	}
	return ok, len(r.Findings)
}

// Experiment is one reproducible artifact of the paper. Run regenerates
// it on the given run engine; experiments that evaluate derived
// environments (other stacks, other device models) fork the engine with
// Runner.WithEnv, so one engine shared across the whole suite serves
// every repeated (workflow, configuration, environment) execution from
// its cache.
type Experiment struct {
	ID    string
	Title string
	Run   func(rt *core.Runner) (*Report, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig1", "Motivation: miniAMR workflows under different configurations", Fig1},
		{"tab1", "Table I: configuration summary", Table1},
		{"fig3", "Workflow parameter space", Fig3},
		{"fig4", "Benchmark Writer+Reader, 64 MB objects", Fig4},
		{"fig5", "Benchmark Writer+Reader, 2 KB objects", Fig5},
		{"fig6", "GTC + Read-Only", Fig6},
		{"fig7", "GTC + MatrixMult", Fig7},
		{"fig8", "miniAMR + Read-Only", Fig8},
		{"fig9", "miniAMR + MatrixMult", Fig9},
		{"fig10", "Runtime normalized to the fastest configuration", Fig10},
		{"tab2", "Table II: recommendations vs simulated oracle", Table2},
		{"stackcmp", "Storage-mechanism comparison (NOVA vs NVStream)", StackComparison},
		{"ablation", "Device-model ablations", Ablations},
		{"sweep", "Configuration crossover map (extension)", Sweep},
		{"gen2", "Rule robustness on Gen-2 Optane (extension)", RuleTransfer},
		{"jitter", "Robustness to compute-load imbalance (extension)", JitterRobustness},
		{"placement", "Deployment-space search on four sockets (extension)", PlacementSpace},
		{"online", "Online cluster scheduling: PMEM-aware vs fixed configurations (extension)", OnlineSched},
		{"interference", "Cross-job PMEM interference: oblivious vs interference-aware placement (extension)", InterferenceSched},
		{"faults", "Node failures: retry, backoff and checkpoint-restart on an unreliable cluster (extension)", FaultSched},
		{"dag", "DAG workflows: per-stage tuning vs best uniform configuration (extension)", DAGTuning},
		{"tiering", "Multi-tier memory: DRAM-aware placement policies vs Table I (extension)", Tiering},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// runAll executes a workflow under all four configurations on the
// engine.
func runAll(wf workflow.Spec, rt *core.Runner) ([]core.Result, error) {
	return rt.RunAll(wf)
}

// resultBars converts per-configuration results into the paper's bar
// form: serial configurations as split writer|reader bars, parallel as
// a single bar.
func resultBars(results []core.Result) []trace.Bar {
	bars := make([]trace.Bar, 0, len(results))
	best := core.Best(results)
	for _, r := range results {
		var b trace.Bar
		b.Label = r.Config.Label()
		if r.Config.Mode == core.Serial {
			b.Segments = []float64{r.WriterSplit, r.ReaderSplit}
		} else {
			b.Segments = []float64{r.TotalSeconds}
		}
		if r.Config == best.Config {
			b.Note = "<- best"
		}
		bars = append(bars, b)
	}
	return bars
}

// winner returns the best configuration's label.
func winner(results []core.Result) core.Config {
	return core.Best(results).Config
}

// ratio returns a/b guarding against division by zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fmtRatio renders a ratio as "1.23x".
func fmtRatio(r float64) string { return fmt.Sprintf("%.2fx", r) }

// fmtPct renders a ratio-1 as a percentage.
func fmtPct(r float64) string { return fmt.Sprintf("%+.1f%%", (r-1)*100) }

// resultOf picks the result for one configuration.
func resultOf(results []core.Result, cfg core.Config) core.Result {
	for _, r := range results {
		if r.Config == cfg {
			return r
		}
	}
	return core.Result{}
}

// sortedConfigsByRuntime returns configs from fastest to slowest.
func sortedConfigsByRuntime(results []core.Result) []core.Result {
	out := append([]core.Result(nil), results...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].TotalSeconds < out[j].TotalSeconds })
	return out
}
