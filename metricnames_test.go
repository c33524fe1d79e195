package pwf

import (
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"pwf/internal/checkpoint"
	"pwf/internal/obs"
	"pwf/internal/server"
	"pwf/internal/sweep"
)

// TestMetricNamesDocumented keeps DESIGN.md's metric-name table the
// one list of registry names: it builds every component that registers
// metrics on a fresh registry and requires each registered name to
// match a row of the table, and each fixed row to be registered.
func TestMetricNamesDocumented(t *testing.T) {
	rows := metricNameRows(t)

	reg := obs.NewRegistry()
	obs.NewMetrics(reg)
	grid := sweep.Config{
		Jobs:     []sweep.Job{{Workload: sweep.Workload{Kind: sweep.SCU, S: 1}, N: 2, Steps: 100, Replicas: 2}},
		Seed:     1,
		Workers:  1,
		Registry: reg,
	}
	batched := grid
	batched.ReplicaBatch = 2
	if _, err := sweep.Run(batched); err != nil {
		t.Fatal(err)
	}
	cp, err := checkpoint.Open(filepath.Join(t.TempDir(), "grid.ckpt"), grid, checkpoint.Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	server.New(server.Config{Registry: reg, Cache: sweep.NewChainCache()}).Close()
	obs.NewBinaryTraceWriter(io.Discard, obs.BinaryTraceOptions{Registry: reg})
	sweep.NewChainCache().Publish(reg, "chain_cache")
	new(obs.OpStats).Register(reg, "native_stack_w4")

	snap := reg.Snapshot()
	var registered []string
	for name := range snap.Counters {
		registered = append(registered, name)
	}
	for name := range snap.Gauges {
		registered = append(registered, name)
	}
	for name := range snap.Histograms {
		registered = append(registered, name)
	}
	sort.Strings(registered)
	matched := map[string]bool{}
	for _, name := range registered {
		found := false
		for row, re := range rows {
			if re.MatchString(name) {
				matched[row], found = true, true
			}
		}
		if !found {
			t.Errorf("metric %q is registered but missing from DESIGN.md's metric-name table", name)
		}
	}
	for row := range rows {
		if !strings.Contains(row, "<") && !matched[row] {
			t.Errorf("DESIGN.md lists metric %q, which no component registers", row)
		}
	}
}

// metricNameRows parses the first column of DESIGN.md's metric-name
// table into one pattern per row; a <placeholder> matches any name
// segment.
func metricNameRows(t *testing.T) map[string]*regexp.Regexp {
	t.Helper()
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	start := strings.Index(text, "**Metric names.**")
	if start < 0 {
		t.Fatal(`DESIGN.md has no "**Metric names.**" paragraph`)
	}
	rows := map[string]*regexp.Regexp{}
	inTable := false
	for _, line := range strings.Split(text[start:], "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		cells := strings.Split(line, "|")
		name := strings.TrimSpace(cells[1])
		if !strings.HasPrefix(name, "`") {
			continue // header or separator
		}
		name = strings.Trim(name, "`")
		pattern := regexp.MustCompile(`<[^>]+>`).ReplaceAllString(regexp.QuoteMeta(name), `[a-z0-9]+`)
		rows[name] = regexp.MustCompile("^" + pattern + "$")
	}
	if len(rows) == 0 {
		t.Fatal("DESIGN.md's metric-name table has no rows")
	}
	return rows
}
