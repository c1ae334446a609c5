package sim

import (
	"fmt"
	"strings"
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

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
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
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
