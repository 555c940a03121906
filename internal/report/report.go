// Package report renders experiment results as aligned text tables, CSV
// and ASCII bar charts — the presentation layer for regenerating the
// paper's Tables 2–4 and Figures 5–6 in a terminal.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-oriented text table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v. The cell count must
// match the header count.
func (t *Table) AddRow(cells ...interface{}) {
	if len(cells) != len(t.Headers) {
		panic(fmt.Sprintf("report: row has %d cells, table has %d columns", len(cells), len(t.Headers)))
	}
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.rows = append(t.rows, row)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Render writes the table as aligned, pipe-separated text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		return "| " + strings.Join(parts, " | ") + " |"
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	b.WriteString(line(t.Headers) + "\n")
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	b.WriteString(line(sep) + "\n")
	for _, row := range t.rows {
		b.WriteString(line(row) + "\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderCSV writes the table as CSV (headers first, no title).
func (t *Table) RenderCSV(w io.Writer) error {
	var b strings.Builder
	writeCSVRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeCSVRow(t.Headers)
	for _, row := range t.rows {
		writeCSVRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Bar is one bar of a BarChart.
type Bar struct {
	Label string
	Value float64
}

// BarChart renders grouped horizontal ASCII bars, used for Figures 5
// and 6. Bars are scaled to the chart's maximum value.
type BarChart struct {
	Title string
	// Unit is appended to each printed value (e.g. "x" or "%").
	Unit string
	// Width is the maximum bar width in characters (default 50).
	Width int
	bars  []Bar
}

// NewBarChart creates a chart.
func NewBarChart(title, unit string) *BarChart {
	return &BarChart{Title: title, Unit: unit, Width: 50}
}

// Add appends a bar.
func (c *BarChart) Add(label string, value float64) {
	c.bars = append(c.bars, Bar{Label: label, Value: value})
}

// Render writes the chart.
func (c *BarChart) Render(w io.Writer) error {
	width := c.Width
	if width <= 0 {
		width = 50
	}
	maxVal := 0.0
	maxLabel := 0
	for _, b := range c.bars {
		if b.Value > maxVal {
			maxVal = b.Value
		}
		if len(b.Label) > maxLabel {
			maxLabel = len(b.Label)
		}
	}
	var sb strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&sb, "%s\n", c.Title)
	}
	for _, b := range c.bars {
		n := 0
		if maxVal > 0 {
			n = int(b.Value / maxVal * float64(width))
		}
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(&sb, "%s | %s %.2f%s\n", pad(b.Label, maxLabel), strings.Repeat("#", n), b.Value, c.Unit)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// Millions formats a count as millions with two decimals, the unit the
// paper's Tables 3 and 4 use (e.g. 140660000 -> "140.66").
func Millions(n uint64) string {
	return fmt.Sprintf("%.2f", float64(n)/1e6)
}

// Ratio formats a/b with two decimals; "inf" when b is zero.
func Ratio(a, b float64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2f", a/b)
}
