package sim

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Table is a tiny text-table builder used by the experiment harness to
// print figure/table reproductions in a stable, diffable format. A
// table bound to a MetricSet additionally publishes every numeric cell
// as a typed metric when it is first rendered, named
// "<row label>/<column header>" — the names campaign aggregates carry.
type Table struct {
	title     string
	headers   []string
	rows      [][]string
	ms        *MetricSet
	published bool
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// BindMetrics attaches ms; on first render the table publishes its
// numeric cells into it. A nil ms disables publication.
func (t *Table) BindMetrics(ms *MetricSet) { t.ms = ms }

// AddRow appends a row. A float64 cell renders as %.3f, an int or a
// string as itself, and any other value with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = strconv.FormatFloat(v, 'f', 3, 64)
		case int:
			row[i] = strconv.Itoa(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// publish emits every numeric cell of every row as a typed metric, in
// row-major order, exactly once. Values are taken from the rendered
// cell text via ParseMetricNumber, so the published value is precisely
// the number the report displays.
func (t *Table) publish() {
	if t.ms == nil || t.published {
		return
	}
	t.published = true
	for _, row := range t.rows {
		if len(row) < 2 {
			continue
		}
		label := row[0]
		for i := 1; i < len(row) && i < len(t.headers); i++ {
			if v, ok := ParseMetricNumber(row[i]); ok {
				t.ms.Add(label+"/"+t.headers[i], v)
			}
		}
	}
}

// String renders the table with aligned columns. If the table is bound
// to a MetricSet, the first render publishes the numeric cells.
func (t *Table) String() string {
	t.publish()
	width := make([]int, len(t.headers))
	for i, h := range t.headers {
		width[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	line := 0
	for _, w := range width {
		line += w + 2
	}
	var b strings.Builder
	b.Grow(len(t.title) + 7 + line*(len(t.rows)+2))
	if t.title != "" {
		b.WriteString("== ")
		b.WriteString(t.title)
		b.WriteString(" ==\n")
	}
	// A column's width is its longest cell in bytes, but a cell is
	// padded by its rune count, so a cell holding "×" or "—" comes out
	// narrower in bytes than an ASCII cell of the same column.
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			fill(&b, spaces, width[i]-utf8.RuneCountInString(c))
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	for i, w := range width {
		if i > 0 {
			b.WriteString("  ")
		}
		fill(&b, dashes, w)
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

const (
	spaces = "                                "
	dashes = "--------------------------------"
)

// fill writes n bytes of run, a string of one repeated byte, to b.
func fill(b *strings.Builder, run string, n int) {
	for ; n > len(run); n -= len(run) {
		b.WriteString(run)
	}
	if n > 0 {
		b.WriteString(run[:n])
	}
}
