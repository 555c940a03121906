package report

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Title", "App", "Misses")
	tb.AddRow("CJPEG", 42)
	tb.AddRow("DJPEG", 7)
	if tb.Rows() != 2 {
		t.Fatalf("Rows = %d", tb.Rows())
	}
	var b strings.Builder
	if err := tb.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Title", "| App ", "| CJPEG", "| 42", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title + header + separator + 2 rows.
	if len(lines) != 5 {
		t.Errorf("render has %d lines, want 5", len(lines))
	}
	// All table lines equal width.
	for i := 2; i < len(lines); i++ {
		if len(lines[i]) != len(lines[1]) {
			t.Errorf("ragged table: line %d width %d vs %d", i, len(lines[i]), len(lines[1]))
		}
	}
}

func TestTableRowMismatchPanics(t *testing.T) {
	tb := NewTable("", "A", "B")
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for wrong cell count")
		}
	}()
	tb.AddRow(1)
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("ignored", "name", "value")
	tb.AddRow("plain", 1)
	tb.AddRow("with,comma", 2)
	tb.AddRow(`with"quote`, 3)
	var b strings.Builder
	if err := tb.RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Contains(out, "ignored") {
		t.Error("CSV should not contain the title")
	}
	wantLines := []string{
		"name,value",
		"plain,1",
		`"with,comma",2`,
		`"with""quote",3`,
	}
	gotLines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("CSV lines = %d, want %d:\n%s", len(gotLines), len(wantLines), out)
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("CSV line %d = %q, want %q", i, gotLines[i], wantLines[i])
		}
	}
}

func TestBarChart(t *testing.T) {
	c := NewBarChart("Speedup", "x")
	c.Add("CJPEG b4", 10)
	c.Add("CJPEG b64", 40)
	var b strings.Builder
	if err := c.Render(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("chart lines = %d, want 3", len(lines))
	}
	small := strings.Count(lines[1], "#")
	big := strings.Count(lines[2], "#")
	if big != 50 {
		t.Errorf("max bar = %d chars, want full width 50", big)
	}
	if small < 10 || small > 15 {
		t.Errorf("quarter bar = %d chars, want ~12", small)
	}
	if !strings.Contains(lines[2], "40.00x") {
		t.Errorf("value missing from %q", lines[2])
	}
}

func TestBarChartEmptyAndZero(t *testing.T) {
	c := NewBarChart("", "%")
	c.Add("zero", 0)
	var b strings.Builder
	if err := c.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "0.00%") {
		t.Errorf("zero bar render = %q", b.String())
	}
}

func TestFormatters(t *testing.T) {
	if got := Millions(140_660_000); got != "140.66" {
		t.Errorf("Millions = %q", got)
	}
	if got := Ratio(40, 10); got != "4.00" {
		t.Errorf("Ratio = %q", got)
	}
	if got := Ratio(1, 0); got != "inf" {
		t.Errorf("Ratio/0 = %q", got)
	}
}
