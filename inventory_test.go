package pwf

import (
	"os"
	"sort"
	"strings"
	"testing"
)

// TestDesignInventoryMatchesRepo keeps DESIGN.md's package inventory,
// the one hand-written tree of the repository, in step with it: every
// internal/* and cmd/* directory must be listed there, and every
// listed one must exist.
func TestDesignInventoryMatchesRepo(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	start := strings.Index(text, "## Package inventory")
	if start < 0 {
		t.Fatal(`DESIGN.md has no "## Package inventory" section`)
	}
	block := text[start:]
	open := strings.Index(block, "```\n")
	if open < 0 {
		t.Fatal("package inventory has no code block")
	}
	block = block[open+4:]
	end := strings.Index(block, "```")
	if end < 0 {
		t.Fatal("package inventory code block is not closed")
	}

	// The tree indents top-level entries by two spaces and their
	// children by four; a child is "name/" followed by its description.
	listed := map[string]bool{}
	section := ""
	for _, line := range strings.Split(block[:end], "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch {
		case strings.HasPrefix(line, "  ") && !strings.HasPrefix(line, "   "):
			section = fields[0]
		case strings.HasPrefix(line, "    ") && !strings.HasPrefix(line, "     ") &&
			strings.HasSuffix(fields[0], "/"):
			listed[section+fields[0]] = true
		}
	}

	for _, parent := range []string{"internal", "cmd"} {
		entries, err := os.ReadDir(parent)
		if err != nil {
			t.Fatal(err)
		}
		onDisk := map[string]bool{}
		for _, e := range entries {
			dir := parent + "/" + e.Name() + "/"
			if !e.IsDir() {
				continue
			}
			onDisk[dir] = true
			if !listed[dir] {
				t.Errorf("%s is missing from DESIGN.md's package inventory", dir)
			}
		}
		var stale []string
		for dir := range listed {
			if strings.HasPrefix(dir, parent+"/") && !onDisk[dir] {
				stale = append(stale, dir)
			}
		}
		sort.Strings(stale)
		for _, dir := range stale {
			t.Errorf("DESIGN.md's package inventory lists %s, which does not exist", dir)
		}
	}
}
