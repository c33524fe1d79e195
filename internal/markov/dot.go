package markov

import (
	"errors"
	"fmt"
	"io"
	"strings"
)

// WriteDOT renders the chain as a Graphviz digraph — the tangible
// form of the paper's Figure 1 (the individual and system chains for
// two processes). labels may be nil (state indices are used) or must
// have one entry per state. Edge labels carry transition
// probabilities; zero-probability edges are omitted.
func (c *Chain) WriteDOT(w io.Writer, name string, labels []string) error {
	if w == nil {
		return errors.New("markov: nil writer")
	}
	if labels != nil && len(labels) != c.N() {
		return fmt.Errorf("markov: %d labels for %d states", len(labels), c.N())
	}
	label := func(i int) string {
		if labels == nil {
			return fmt.Sprintf("s%d", i)
		}
		return labels[i]
	}
	if name == "" {
		name = "chain"
	}
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=LR;\n  node [shape=circle];\n", name); err != nil {
		return err
	}
	for i := 0; i < c.N(); i++ {
		if _, err := fmt.Fprintf(w, "  %d [label=%q];\n", i, label(i)); err != nil {
			return err
		}
	}
	for i := 0; i < c.N(); i++ {
		col, p := c.Row(i)
		for k, j := range col {
			if _, err := fmt.Fprintf(w, "  %d -> %d [label=%q];\n", i, j, trimFloat(p[k])); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// trimFloat renders a probability compactly.
func trimFloat(p float64) string {
	s := fmt.Sprintf("%.4f", p)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}
