package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/configspace"
)

// Column names of the fixed (non-dimension) CSV columns.
const (
	colRuntime  = "runtime_seconds"
	colPrice    = "unit_price_per_hour"
	colCost     = "cost"
	colTimedOut = "timed_out"
	extraPrefix = "extra_"
)

// WriteCSV serializes the job as CSV: one column per dimension (using labels
// when available), followed by runtime_seconds, unit_price_per_hour, cost,
// timed_out, and one extra_<name> column per extra metric. Two leading
// comment lines carry the job name and timeout.
func WriteCSV(w io.Writer, job *Job) error {
	if job == nil {
		return errors.New("dataset: nil job")
	}
	if _, err := fmt.Fprintf(w, "# job=%s\n# timeout_seconds=%g\n", job.Name(), job.TimeoutSeconds()); err != nil {
		return fmt.Errorf("dataset: writing CSV header comments: %w", err)
	}

	dims := job.Space().Dimensions()
	extraNames := job.ExtraNames()
	extraCols := make([][]float64, len(extraNames))
	for k, name := range extraNames {
		extraCols[k] = job.ExtraMetric(name)
	}

	cw := csv.NewWriter(w)
	header := make([]string, 0, len(dims)+4+len(extraNames))
	for _, d := range dims {
		header = append(header, d.Name)
	}
	header = append(header, colRuntime, colPrice, colCost, colTimedOut)
	for _, name := range extraNames {
		header = append(header, extraPrefix+name)
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("dataset: writing CSV header: %w", err)
	}

	for _, m := range job.Measurements() {
		cfg, err := job.Space().Config(m.ConfigID)
		if err != nil {
			return err
		}
		row := make([]string, 0, len(header))
		for d := range dims {
			row = append(row, dims[d].Label(cfg.Indices[d]))
		}
		row = append(row,
			strconv.FormatFloat(m.RuntimeSeconds, 'g', -1, 64),
			strconv.FormatFloat(m.UnitPricePerHour, 'g', -1, 64),
			strconv.FormatFloat(m.Cost, 'g', -1, 64),
			strconv.FormatBool(m.TimedOut),
		)
		for _, col := range extraCols {
			row = append(row, strconv.FormatFloat(col[m.ConfigID], 'g', -1, 64))
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("dataset: writing CSV row for config %d: %w", m.ConfigID, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("dataset: flushing CSV: %w", err)
	}
	return nil
}

// csvRow is a parsed CSV data row prior to space construction.
type csvRow struct {
	dimCells []string
	m        Measurement
}

// ReadCSV parses a job from the CSV format produced by WriteCSV: leading
// comment lines (the job name and timeout among them), then the CSV table.
// After the header only empty lines are skipped: a '#' line or a
// whitespace-only line there is a malformed record and fails the file, since
// an unquoted label cell may itself start with '#'. Dimension columns may
// contain either numbers or arbitrary labels; label columns are mapped to
// ordinal numeric values in sorted label order.
func ReadCSV(r io.Reader) (*Job, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV: %w", err)
	}
	name := "job"
	timeout := 0.0

	// Comment lines lead the file: from the first other non-blank line on,
	// the text is CSV, where a line may start with '#' inside a cell.
	rest := string(raw)
	for rest != "" {
		line, after, _ := strings.Cut(rest, "\n")
		trimmed := strings.TrimSpace(line)
		if trimmed != "" && !strings.HasPrefix(trimmed, "#") {
			break
		}
		meta := strings.TrimSpace(strings.TrimPrefix(trimmed, "#"))
		if v, ok := strings.CutPrefix(meta, "job="); ok {
			name = strings.TrimSpace(v)
		}
		if v, ok := strings.CutPrefix(meta, "timeout_seconds="); ok {
			parsed, perr := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if perr != nil {
				return nil, fmt.Errorf("dataset: parsing timeout comment %q: %w", trimmed, perr)
			}
			timeout = parsed
		}
		rest = after
	}

	records, err := csv.NewReader(strings.NewReader(rest)).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: parsing CSV: %w", err)
	}
	if len(records) < 2 {
		return nil, errors.New("dataset: CSV requires a header and at least one data row")
	}
	header := records[0]
	dimCols, fixedCols, extraCols, err := classifyColumns(header)
	if err != nil {
		return nil, err
	}

	rows := make([]csvRow, 0, len(records)-1)
	// extra[name][i] is the metric of data row i, the order of measurements
	// below.
	var extra map[string][]float64
	if len(extraCols) > 0 {
		extra = make(map[string][]float64, len(extraCols))
		for name := range extraCols {
			extra[name] = make([]float64, len(records)-1)
		}
	}
	for i, rec := range records[1:] {
		if len(rec) != len(header) {
			return nil, fmt.Errorf("dataset: row %d has %d cells, want %d", i+1, len(rec), len(header))
		}
		row, err := parseRow(rec, dimCols, fixedCols, extraCols, i, extra)
		if err != nil {
			return nil, fmt.Errorf("dataset: row %d: %w", i+1, err)
		}
		rows = append(rows, row)
	}

	space, indexOf, err := buildSpace(header, dimCols, rows)
	if err != nil {
		return nil, err
	}

	measurements := make([]Measurement, 0, len(rows))
	for i, row := range rows {
		id, ok := indexOf(row.dimCells)
		if !ok {
			return nil, fmt.Errorf("dataset: row %d does not map to a configuration", i+1)
		}
		m := row.m
		m.ConfigID = id
		measurements = append(measurements, m)
	}
	return NewJob(name, space, measurements, timeout, extra)
}

// classifyColumns splits the header into dimension columns, fixed columns and
// extra metric columns.
func classifyColumns(header []string) (dimCols []int, fixedCols map[string]int, extraCols map[string]int, err error) {
	fixedCols = make(map[string]int)
	extraCols = make(map[string]int)
	for i, h := range header {
		switch {
		case h == colRuntime || h == colPrice || h == colCost || h == colTimedOut:
			fixedCols[h] = i
		case strings.HasPrefix(h, extraPrefix):
			extraCols[strings.TrimPrefix(h, extraPrefix)] = i
		default:
			dimCols = append(dimCols, i)
		}
	}
	for _, required := range []string{colRuntime, colPrice} {
		if _, ok := fixedCols[required]; !ok {
			return nil, nil, nil, fmt.Errorf("dataset: CSV is missing required column %q", required)
		}
	}
	if len(dimCols) == 0 {
		return nil, nil, nil, errors.New("dataset: CSV has no dimension columns")
	}
	return dimCols, fixedCols, extraCols, nil
}

// parseRow parses data row i, writing its extra metrics into extra[name][i].
func parseRow(rec []string, dimCols []int, fixedCols, extraCols map[string]int, i int, extra map[string][]float64) (csvRow, error) {
	row := csvRow{dimCells: make([]string, 0, len(dimCols))}
	for _, c := range dimCols {
		row.dimCells = append(row.dimCells, strings.TrimSpace(rec[c]))
	}

	runtime, err := strconv.ParseFloat(strings.TrimSpace(rec[fixedCols[colRuntime]]), 64)
	if err != nil {
		return csvRow{}, fmt.Errorf("parsing %s: %w", colRuntime, err)
	}
	price, err := strconv.ParseFloat(strings.TrimSpace(rec[fixedCols[colPrice]]), 64)
	if err != nil {
		return csvRow{}, fmt.Errorf("parsing %s: %w", colPrice, err)
	}
	cost := runtime / 3600 * price
	if c, ok := fixedCols[colCost]; ok {
		cost, err = strconv.ParseFloat(strings.TrimSpace(rec[c]), 64)
		if err != nil {
			return csvRow{}, fmt.Errorf("parsing %s: %w", colCost, err)
		}
	}
	timedOut := false
	if c, ok := fixedCols[colTimedOut]; ok {
		timedOut, err = strconv.ParseBool(strings.TrimSpace(rec[c]))
		if err != nil {
			return csvRow{}, fmt.Errorf("parsing %s: %w", colTimedOut, err)
		}
	}
	row.m = Measurement{
		RuntimeSeconds:   runtime,
		UnitPricePerHour: price,
		Cost:             cost,
		TimedOut:         timedOut,
	}
	for name, c := range extraCols {
		v, err := strconv.ParseFloat(strings.TrimSpace(rec[c]), 64)
		if err != nil {
			return csvRow{}, fmt.Errorf("parsing %s%s: %w", extraPrefix, name, err)
		}
		extra[name][i] = v
	}
	return row, nil
}

// buildSpace derives a configuration space from the observed dimension cells
// and returns a function that maps a row's cells to the configuration ID.
func buildSpace(header []string, dimCols []int, rows []csvRow) (*configspace.Space, func(cells []string) (int, bool), error) {
	nDims := len(dimCols)
	// Distinct cell values per dimension.
	distinct := make([]map[string]struct{}, nDims)
	for d := range distinct {
		distinct[d] = make(map[string]struct{})
	}
	for _, row := range rows {
		for d, cell := range row.dimCells {
			distinct[d][cell] = struct{}{}
		}
	}

	dims := make([]configspace.Dimension, nDims)
	cellIndex := make([]map[string]int, nDims)
	for d := range dims {
		cells := make([]string, 0, len(distinct[d]))
		for c := range distinct[d] {
			cells = append(cells, c)
		}
		sortCells(cells)

		dim := configspace.Dimension{Name: header[dimCols[d]]}
		numeric := true
		values := make([]float64, len(cells))
		for i, c := range cells {
			v, err := strconv.ParseFloat(c, 64)
			if err != nil {
				numeric = false
				break
			}
			values[i] = v
		}
		if numeric {
			dim.Values = values
		} else {
			dim.Values = make([]float64, len(cells))
			dim.Labels = cells
			for i := range cells {
				dim.Values[i] = float64(i)
			}
		}
		dims[d] = dim
		cellIndex[d] = make(map[string]int, len(cells))
		for i, c := range cells {
			cellIndex[d][c] = i
		}
	}

	// Observed index vectors define the (possibly sparse) space.
	type key string
	observed := make(map[key]struct{}, len(rows))
	encode := func(indices []int) key {
		parts := make([]string, len(indices))
		for i, idx := range indices {
			parts[i] = strconv.Itoa(idx)
		}
		return key(strings.Join(parts, ","))
	}
	for _, row := range rows {
		indices := make([]int, nDims)
		for d, cell := range row.dimCells {
			indices[d] = cellIndex[d][cell]
		}
		observed[encode(indices)] = struct{}{}
	}

	space, err := configspace.New(dims, func(indices []int) bool {
		_, ok := observed[encode(indices)]
		return ok
	})
	if err != nil {
		return nil, nil, fmt.Errorf("dataset: building space from CSV: %w", err)
	}

	indexOf := func(cells []string) (int, bool) {
		indices := make([]int, nDims)
		for d, cell := range cells {
			idx, ok := cellIndex[d][cell]
			if !ok {
				return 0, false
			}
			indices[d] = idx
		}
		return space.IDOfIndices(indices)
	}
	return space, indexOf, nil
}

// sortCells sorts cell strings numerically when every cell parses as a
// number, and lexicographically otherwise, so that dimension values keep a
// natural order (e.g. cluster sizes 4 < 8 < 16).
func sortCells(cells []string) {
	numeric := true
	for _, c := range cells {
		if _, err := strconv.ParseFloat(c, 64); err != nil {
			numeric = false
			break
		}
	}
	if numeric {
		sort.Slice(cells, func(i, j int) bool {
			vi, _ := strconv.ParseFloat(cells[i], 64)
			vj, _ := strconv.ParseFloat(cells[j], 64)
			return vi < vj
		})
		return
	}
	sort.Strings(cells)
}
