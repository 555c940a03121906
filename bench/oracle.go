package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// normalize strips the parts of a tool's standard output that may differ
// between two exact runs — wall times and provenance — so the rest can
// be hashed and compared byte for byte:
//
//   - dewsim: the "simulated ..." footer (elapsed time and mode);
//   - refsim: the "replay:" line (ingest/replay times, shard fan-out);
//   - experiments: every table column whose header names a time or a
//     speedup, and the whole Figure 5 block (speedups are time ratios);
//   - explore -csv: nothing.
func normalize(tool string, out []byte) []byte {
	switch tool {
	case "dewsim":
		return dropLines(out, "simulated ")
	case "refsim":
		return dropLines(out, "replay:")
	case "experiments":
		return normalizeExperiments(out)
	}
	return out
}

func dropLines(out []byte, prefix string) []byte {
	var b bytes.Buffer
	for _, line := range bytes.SplitAfter(out, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte(prefix)) {
			b.Write(line)
		}
	}
	return b.Bytes()
}

// normalizeExperiments walks the blank-line-separated blocks the
// experiments tool prints (one per table or figure).
func normalizeExperiments(out []byte) []byte {
	var b bytes.Buffer
	for _, block := range strings.SplitAfter(string(out), "\n\n") {
		if strings.HasPrefix(block, "Figure 5:") {
			continue
		}
		b.WriteString(dropTimeColumns(block))
	}
	return b.Bytes()
}

// dropTimeColumns removes timing columns from a CSV table block. Blocks
// without such a column — charts, tables of counts — are returned as
// they are.
func dropTimeColumns(block string) string {
	header, _, _ := strings.Cut(block, "\n")
	var drop []bool
	dropping := false
	for _, h := range strings.Split(header, ",") {
		h = strings.ToLower(h)
		d := strings.Contains(h, "time") || strings.Contains(h, "speedup")
		drop = append(drop, d)
		dropping = dropping || d
	}
	if !dropping {
		return block
	}
	body := strings.TrimRight(block, "\n")
	r := csv.NewReader(strings.NewReader(body))
	r.FieldsPerRecord = -1
	recs, err := r.ReadAll()
	if err != nil {
		return block // not CSV after all: hashed verbatim
	}
	var b strings.Builder
	w := csv.NewWriter(&b)
	for _, rec := range recs {
		var keep []string
		for i, f := range rec {
			if i >= len(drop) || !drop[i] {
				keep = append(keep, f)
			}
		}
		w.Write(keep)
	}
	w.Flush()
	return strings.TrimSuffix(b.String(), "\n") + block[len(body):]
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// configRow is one configuration's miss statistics as a tool printed it.
type configRow struct {
	sets, assoc, block int
	accesses, misses   uint64
}

func (r configRow) String() string {
	return fmt.Sprintf("sets=%d assoc=%d block=%d", r.sets, r.assoc, r.block)
}

// parseRows reads the leading CSV table of a dewsim or explore -csv
// output (up to the first blank line) into configuration rows.
func parseRows(out []byte) ([]configRow, error) {
	table, _, _ := bytes.Cut(out, []byte("\n\n"))
	recs, err := csv.NewReader(bytes.NewReader(table)).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("parsing result table: %w", err)
	}
	if len(recs) < 2 {
		return nil, fmt.Errorf("result table has no rows")
	}
	col := map[string]int{}
	for i, h := range recs[0] {
		col[h] = i
	}
	for _, h := range []string{"sets", "assoc", "block", "accesses", "misses"} {
		if _, ok := col[h]; !ok {
			return nil, fmt.Errorf("result table lacks a %q column", h)
		}
	}
	rows := make([]configRow, 0, len(recs)-1)
	for _, rec := range recs[1:] {
		var r configRow
		var errs [5]error
		r.sets, errs[0] = strconv.Atoi(rec[col["sets"]])
		r.assoc, errs[1] = strconv.Atoi(rec[col["assoc"]])
		r.block, errs[2] = strconv.Atoi(rec[col["block"]])
		r.accesses, errs[3] = strconv.ParseUint(rec[col["accesses"]], 10, 64)
		r.misses, errs[4] = strconv.ParseUint(rec[col["misses"]], 10, 64)
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("parsing result row %q: %w", rec, err)
			}
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// parseRefsim reads the access and miss totals of a refsim report.
func parseRefsim(out []byte) (accesses, misses uint64, err error) {
	var seen int
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		var dst *uint64
		switch key {
		case "accesses":
			dst = &accesses
		case "misses":
			dst = &misses
		default:
			continue
		}
		field, _, _ := strings.Cut(strings.TrimSpace(val), " ")
		if *dst, err = strconv.ParseUint(field, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("parsing refsim %s: %w", key, err)
		}
		seen++
	}
	if seen != 2 {
		return 0, 0, fmt.Errorf("refsim report lacks accesses/misses lines")
	}
	return accesses, misses, nil
}
