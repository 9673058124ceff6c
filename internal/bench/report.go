package bench

import (
	"fmt"
	"io"
	"strings"
)

// Report is one experiment's output: a table in the shape of the paper's
// corresponding table or figure, plus notes on paper-vs-measured.
type Report struct {
	ID       string
	Title    string
	PaperRef string
	Header   []string
	Rows     [][]string
	Notes    []string
}

// AddRow appends one formatted row.
func (r *Report) AddRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// Notef appends a formatted note.
func (r *Report) Notef(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// WriteText renders the report as an aligned text table.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "=== %s — %s (%s) ===\n", r.ID, r.Title, r.PaperRef)
	// Column widths accommodate the widest cell, including ragged rows
	// longer than the header.
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			for i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			width := 0
			if i < len(widths) {
				width = widths[i]
			}
			fmt.Fprintf(w, "%-*s", width, c)
		}
		fmt.Fprintln(w)
	}
	writeRow(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// WriteMarkdown renders the report as a Markdown table (EXPERIMENTS.md).
func (r *Report) WriteMarkdown(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s (%s)\n\n", r.ID, r.Title, r.PaperRef)
	fmt.Fprintf(w, "| %s |\n", strings.Join(r.Header, " | "))
	seps := make([]string, len(r.Header))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range r.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	fmt.Fprintln(w)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "*Note: %s*\n\n", n)
	}
}

// Experiment pairs an id with its runner.
type Experiment struct {
	ID       string
	Title    string
	PaperRef string
	Run      func(*Env) (*Report, error)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the registered experiments in registration order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// Get finds an experiment by id.
func Get(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// formatting helpers shared by the experiments

func secs(v float64) string {
	switch {
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

func bytesHuman(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func count(n int64) string {
	switch {
	case n >= 1_000_000:
		return fmt.Sprintf("%.2fM", float64(n)/1e6)
	case n >= 1_000:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}

func speedup(base, v float64) string {
	if v <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", base/v)
}
