package bench

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Table is one experiment's result. Every output format renders the same
// cells: each is formatted once, with its column's verb, and printed as
// aligned text, as CSV, or as a JSON number (a JSON string for a string
// cell).
type Table struct {
	// Notes are text-only lines under the title: the workload, and any
	// reading drawn from the rows.
	Notes   []string
	Columns []Column
	Rows    [][]any
}

// Column is one series: its name is the CSV header and the JSON key, and
// Format is the fmt verb its cells print with.
type Column struct{ Name, Format string }

func (t *Table) header() []string {
	names := make([]string, len(t.Columns))
	for j, c := range t.Columns {
		names[j] = c.Name
	}
	return names
}

func (t *Table) cells() [][]string {
	out := make([][]string, len(t.Rows))
	for i, row := range t.Rows {
		out[i] = make([]string, len(t.Columns))
		for j, c := range t.Columns {
			out[i][j] = fmt.Sprintf(c.Format, row[j])
		}
	}
	return out
}

// print renders the table under its title as aligned text, or as CSV:
// the header line and the rows, nothing else.
func (t *Table) print(w io.Writer, title string, asCSV bool) error {
	cells := t.cells()
	if asCSV {
		cw := csv.NewWriter(w)
		if err := cw.Write(t.header()); err != nil {
			return err
		}
		return cw.WriteAll(cells)
	}
	width := make([]int, len(t.Columns))
	lines := append([][]string{t.header()}, cells...)
	for _, line := range lines {
		for j, s := range line {
			width[j] = max(width[j], utf8.RuneCountInString(s))
		}
	}
	var b strings.Builder
	b.WriteString(title + "\n")
	for _, n := range t.Notes {
		b.WriteString(n + "\n")
	}
	b.WriteString("\n")
	for _, line := range lines {
		var l strings.Builder
		for j, s := range line {
			l.WriteString(s + strings.Repeat(" ", width[j]-utf8.RuneCountInString(s)+2))
		}
		b.WriteString(strings.TrimRight(l.String(), " ") + "\n")
	}
	b.WriteString("\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// JSONResult is the document `ncbench -json` emits: the experiment ID and
// one object per table row, keyed by column name.
type JSONResult struct {
	Experiment string           `json:"experiment"`
	Points     []map[string]any `json:"points"`
}

func (t *Table) writeJSON(w io.Writer, id string) error {
	res := JSONResult{Experiment: id, Points: make([]map[string]any, len(t.Rows))}
	for i, line := range t.cells() {
		pt := make(map[string]any, len(t.Columns))
		for j, c := range t.Columns {
			if _, text := t.Rows[i][j].(string); text {
				pt[c.Name] = line[j]
			} else {
				pt[c.Name] = json.Number(line[j])
			}
		}
		res.Points[i] = pt
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// RunJSON runs an experiment and emits its table as JSON.
func RunJSON(e Experiment, cfg Config) error {
	cfg = cfg.withDefaults()
	t, err := e.table(cfg)
	if err != nil {
		return err
	}
	return t.writeJSON(cfg.Out, e.ID)
}
