package main

import (
	"strings"
)

// table is one rendered evaluation table: its column names (without the
// trailing mean) and its rows as label -> one value string per column plus
// the mean.
type table struct {
	cols   []string
	labels []string
	rows   map[string][]string
}

// parseEval splits evaluation text into its free-text preamble (Table 1)
// and its tables keyed by title. Per-experiment timing lines ("(fig6 in
// 22ms)") and the run-metrics footer are host timings, not results, and are
// dropped.
func parseEval(text string) (preamble []string, tables map[string]*table, order []string) {
	if i := strings.Index(text, "--- run metrics ---"); i >= 0 {
		text = text[:i]
	}
	var lines []string
	for _, l := range strings.Split(text, "\n") {
		if strings.HasPrefix(l, "(") && strings.HasSuffix(l, ")") && strings.Contains(l, " in ") {
			continue
		}
		lines = append(lines, l)
	}
	tables = map[string]*table{}
	var cur *table
	for i := 0; i < len(lines); i++ {
		l := lines[i]
		if i+1 < len(lines) && l != "" && strings.Trim(lines[i+1], "-") == "" && lines[i+1] != "" {
			// Title, dashes, header: a new table.
			cur = &table{rows: map[string][]string{}}
			tables[l] = cur
			order = append(order, l)
			i += 2
			if i < len(lines) {
				f := strings.Fields(lines[i])
				if len(f) > 0 {
					cur.cols = f[:len(f)-1]
				}
			}
			continue
		}
		if strings.TrimSpace(l) == "" {
			cur = nil
			continue
		}
		if cur == nil {
			preamble = append(preamble, l)
			continue
		}
		f := strings.Fields(l)
		n := len(cur.cols) + 1
		if len(f) <= n {
			cur.labels = append(cur.labels, l)
			cur.rows[l] = nil
			continue
		}
		label := strings.Join(f[:len(f)-n], " ")
		cur.labels = append(cur.labels, label)
		cur.rows[label] = f[len(f)-n:]
	}
	return preamble, tables, order
}

// compareEval counts the rows of the rendered evaluation that disagree with
// the golden transcript, cell by cell for every benchmark column the
// rendering has. The mean column, row order and table completeness are
// checked only when the rendering covers the golden's full corpus; a corpus
// subset (the tiny size) renders means over fewer benchmarks.
func compareEval(rendered, golden string) (rows, bad int) {
	gPre, gTabs, gOrder := parseEval(golden)
	rPre, rTabs, rOrder := parseEval(rendered)
	rows = 1
	if strings.Join(gPre, "\n") != strings.Join(rPre, "\n") {
		bad++
	}
	for _, title := range gOrder {
		if rTabs[title] == nil && fullCorpus(rTabs, gTabs) {
			bad++ // an experiment the golden has is missing
		}
	}
	for _, title := range rOrder {
		rt, gt := rTabs[title], gTabs[title]
		rows += len(rt.labels)
		if gt == nil {
			bad += len(rt.labels)
			continue
		}
		full := strings.Join(rt.cols, " ") == strings.Join(gt.cols, " ")
		if full && strings.Join(rt.labels, "\n") != strings.Join(gt.labels, "\n") {
			bad++
		}
		gIdx := map[string]int{}
		for i, c := range gt.cols {
			gIdx[c] = i
		}
		for _, label := range rt.labels {
			rv, gv := rt.rows[label], gt.rows[label]
			ok := len(rv) == len(rt.cols)+1 && len(gv) == len(gt.cols)+1
			for i, c := range rt.cols {
				if !ok {
					break
				}
				gi, found := gIdx[c]
				ok = found && rv[i] == gv[gi]
			}
			if ok && full {
				ok = rv[len(rt.cols)] == gv[len(gt.cols)]
			}
			if !ok {
				bad++
			}
		}
	}
	return rows, bad
}

// fullCorpus reports whether the rendered tables cover every golden column.
func fullCorpus(rTabs, gTabs map[string]*table) bool {
	for title, rt := range rTabs {
		if gt := gTabs[title]; gt != nil {
			return strings.Join(rt.cols, " ") == strings.Join(gt.cols, " ")
		}
	}
	return false
}
