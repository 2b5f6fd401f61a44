package experiments

import (
	"fmt"
	"io"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"
)

// A row struct declares its printed table with `col` field tags, so each
// cell's format is defined once, beside the field it renders:
//
//	col:"[N:]header[,format[,scale]]"
//
// format is a fmt verb and defaults to %v. On a bool it is instead the two
// labels "true label|false label". scale transforms the value before
// formatting: pct multiplies by 100, delta takes (x-1)*100, and ms turns a
// time.Duration into float milliseconds. Columns print in field order, except
// that a column tagged N: prints as the Nth column (1-based). Fields without
// a col tag are not printed.

// column is one printed cell of a tagged row struct.
type column struct {
	field  int
	header string
	format string
	scale  string
	pos    int // 1-based print position, 0 for field order
}

// columns parses the col tags of row struct type t into its columns in print
// order.
func columns(t reflect.Type) ([]column, error) {
	var cols, pinned []column
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag, ok := f.Tag.Lookup("col")
		if !ok {
			continue
		}
		c := column{field: i, format: "%v"}
		if n, rest, ok := strings.Cut(tag, ":"); ok {
			if pos, err := strconv.Atoi(n); err == nil {
				if pos < 1 {
					return nil, fmt.Errorf("%v.%s: column position %d is not positive", t, f.Name, pos)
				}
				c.pos, tag = pos, rest
			}
		}
		parts := strings.SplitN(tag, ",", 3)
		c.header = parts[0]
		if len(parts) > 1 && parts[1] != "" {
			c.format = parts[1]
		}
		if len(parts) > 2 {
			c.scale = parts[2]
		}
		kind := f.Type.Kind()
		switch {
		case kind == reflect.Bool && c.format != "%v" && strings.Count(c.format, "|") != 1:
			return nil, fmt.Errorf("%v.%s: bool format %q is not \"true label|false label\"", t, f.Name, c.format)
		case (c.scale == "pct" || c.scale == "delta") && kind != reflect.Float64,
			c.scale == "ms" && f.Type != reflect.TypeFor[time.Duration]():
			return nil, fmt.Errorf("%v.%s: scale %q does not apply to %v", t, f.Name, c.scale, f.Type)
		case c.scale != "" && c.scale != "pct" && c.scale != "delta" && c.scale != "ms":
			return nil, fmt.Errorf("%v.%s: unknown scale %q", t, f.Name, c.scale)
		}
		if c.pos > 0 {
			pinned = append(pinned, c)
		} else {
			cols = append(cols, c)
		}
	}
	slices.SortStableFunc(pinned, func(a, b column) int { return a.pos - b.pos })
	for _, c := range pinned {
		if c.pos > len(cols)+1 {
			return nil, fmt.Errorf("%v: column position %d is past the last column", t, c.pos)
		}
		cols = slices.Insert(cols, c.pos-1, c)
	}
	return cols, nil
}

// cell renders column c of row value v.
func (c column) cell(v reflect.Value) string {
	f := v.Field(c.field)
	switch {
	case f.Kind() == reflect.Bool && c.format != "%v":
		yes, no, _ := strings.Cut(c.format, "|")
		if f.Bool() {
			return yes
		}
		return no
	case c.scale == "pct":
		return fmt.Sprintf(c.format, f.Float()*100)
	case c.scale == "delta":
		return fmt.Sprintf(c.format, (f.Float()-1)*100)
	case c.scale == "ms":
		return fmt.Sprintf(c.format, float64(f.Int())/1e6)
	}
	return fmt.Sprintf(c.format, f.Interface())
}

// printRows writes title and then rows as one table whose columns are the
// row struct's col tags. A malformed tag is a bug in the row type, so it
// panics.
func printRows[R any](w io.Writer, title string, rows []R) {
	cols, err := columns(reflect.TypeFor[R]())
	if err != nil {
		panic(err)
	}
	header := make([]string, len(cols))
	for i, c := range cols {
		header[i] = c.header
	}
	table := make([][]string, len(rows))
	for i := range rows {
		v := reflect.ValueOf(rows[i])
		table[i] = make([]string, len(cols))
		for j, c := range cols {
			table[i][j] = c.cell(v)
		}
	}
	fmt.Fprintln(w, title)
	writeTable(w, header, table)
}

// writeTable renders a fixed-width column table for the experiment printers;
// fixed formats keep the output diff-able for EXPERIMENTS.md.
func writeTable(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = cell + strings.Repeat(" ", widths[i]-len(cell))
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}
