// Command pwfchains performs the exact Markov-chain analysis of
// Sections 6 and 7 for a chosen algorithm and process count: it
// prints the chain sizes, the stationary success rate, the system and
// individual latencies, and verifies the lifting between the
// individual and system chains. Analyses come from the sweep engine's
// process-wide cache, so repeated invocations inside one process (and
// any concurrent sweeps) share the construction work.
//
// Usage:
//
//	pwfchains -chain scu -n 4
//	pwfchains -chain fetchinc -n 8
//	pwfchains -chain parallel -n 3 -q 3
//
// Observability flags: -trace records the analysis as job lifecycle
// events (job_start/job_end with the chain family and wall time) in
// the binary trace format v2, and -trace-compress adds per-frame
// gzip; -metrics prints a JSON metrics snapshot — the chain-cache
// hit/miss gauges — to stderr. The trace has the same format as
// pwfsweep's, so one reader (pwf.ReadTraceEvents) reads both.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"pwf/internal/chains"
	"pwf/internal/markov"
	"pwf/internal/obs"
	"pwf/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pwfchains:", err)
		os.Exit(1)
	}
}

func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("pwfchains", flag.ContinueOnError)
	var (
		chain     = fs.String("chain", "scu", "chain family: scu, fetchinc, parallel")
		n         = fs.Int("n", 4, "number of processes")
		q         = fs.Int("q", 3, "steps per operation (parallel only)")
		full      = fs.Bool("individual", true, "also build the individual chain and verify the lifting")
		dot       = fs.Bool("dot", false, "emit the system chain as Graphviz DOT (Figure 1) instead of the analysis")
		metrics   = fs.Bool("metrics", false, "print a JSON metrics snapshot (chain-cache hits/misses) to stderr")
		traceFile = fs.String("trace", "", "record the analysis as job lifecycle trace events in this file")
		traceComp = fs.String("trace-compress", "none", "trace compression: none or gzip")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	comp, err := obs.ParseCompression(*traceComp)
	if err != nil {
		return err
	}
	var trace *obs.BinaryTraceWriter
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		trace = obs.NewBinaryTraceWriter(f, obs.BinaryTraceOptions{Compression: comp})
	}

	label := fmt.Sprintf("%s n=%d", *chain, *n)
	if *chain == "parallel" {
		label = fmt.Sprintf("%s n=%d q=%d", *chain, *n, *q)
	}
	if trace != nil {
		trace.Record(obs.Event{Kind: obs.KindJobStart, Job: 0, Label: label})
	}
	start := time.Now()
	err = func() error {
		if *dot {
			return emitDOT(out, *chain, *n, *q)
		}
		switch *chain {
		case "scu":
			return analyzeSCU(out, *n, *full)
		case "fetchinc":
			return analyzeFetchInc(out, *n, *full)
		case "parallel":
			return analyzeParallel(out, *n, *q, *full)
		default:
			return fmt.Errorf("unknown chain family %q", *chain)
		}
	}()
	if trace != nil {
		trace.Record(obs.Event{Kind: obs.KindJobEnd, Job: 0, Label: label,
			ElapsedNS: time.Since(start).Nanoseconds()})
		if ferr := trace.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}
	if err != nil {
		return err
	}
	if *metrics {
		return obs.Default.WriteJSON(errOut)
	}
	return nil
}

func analyzeSCU(out io.Writer, n int, full bool) error {
	sys, err := sweep.DefaultCache.SCUSystem(n)
	if err != nil {
		return err
	}
	w, err := sys.SystemLatency()
	if err != nil {
		return err
	}
	mu, err := sys.SuccessRate()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "SCU(0,1) system chain, n=%d: %d states\n", n, sys.Chain.N())
	fmt.Fprintf(out, "stationary success rate mu = %.6f\n", mu)
	fmt.Fprintf(out, "system latency W = %.4f  (sqrt(n) = %.4f, W/sqrt(n) = %.4f)\n",
		w, math.Sqrt(float64(n)), w/math.Sqrt(float64(n)))
	fmt.Fprintf(out, "implied individual latency n*W = %.4f\n", float64(n)*w)

	if !full {
		return nil
	}
	ind, lift, err := sweep.DefaultCache.SCUIndividual(n)
	if err != nil {
		fmt.Fprintf(out, "individual chain skipped: %v\n", err)
		return nil
	}
	return verify(out, "SCU(0,1)", n, ind, sys, lift, w)
}

func analyzeFetchInc(out io.Writer, n int, full bool) error {
	glob, err := sweep.DefaultCache.FetchIncGlobal(n)
	if err != nil {
		return err
	}
	w, err := glob.SystemLatency()
	if err != nil {
		return err
	}
	z, err := chains.FetchIncHittingZ(n)
	if err != nil {
		return err
	}
	qn, err := chains.RamanujanQ(n)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "fetch-and-inc global chain, n=%d: %d states\n", n, glob.Chain.N())
	fmt.Fprintf(out, "system latency W = %.4f  (Lemma 12 bound 2*sqrt(n) = %.4f)\n",
		w, 2*math.Sqrt(float64(n)))
	fmt.Fprintf(out, "Z(n-1) = %.4f = Ramanujan Q(n) = %.4f, asymptote sqrt(pi*n/2) = %.4f\n",
		z[n-1], qn, chains.RamanujanQAsymptote(n))

	if !full {
		return nil
	}
	ind, lift, err := sweep.DefaultCache.FetchIncIndividual(n)
	if err != nil {
		fmt.Fprintf(out, "individual chain skipped: %v\n", err)
		return nil
	}
	return verify(out, "fetch-and-inc", n, ind, glob, lift, w)
}

func analyzeParallel(out io.Writer, n, q int, full bool) error {
	sys, err := sweep.DefaultCache.ParallelSystem(n, q)
	if err != nil {
		return err
	}
	w, err := sys.SystemLatency()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "parallel code system chain, n=%d q=%d: %d states\n", n, q, sys.Chain.N())
	fmt.Fprintf(out, "system latency W = %.4f  (Lemma 11: exactly q = %d)\n", w, q)

	if !full {
		return nil
	}
	ind, lift, err := sweep.DefaultCache.ParallelIndividual(n, q)
	if err != nil {
		fmt.Fprintf(out, "individual chain skipped: %v\n", err)
		return nil
	}
	return verify(out, "parallel", n, ind, sys, lift, w)
}

// emitDOT writes the requested system chain as a Graphviz digraph —
// the regenerable form of the paper's Figure 1.
func emitDOT(out io.Writer, chain string, n, q int) error {
	switch chain {
	case "scu":
		sys, states, err := chains.SCUSystem(n)
		if err != nil {
			return err
		}
		labels := make([]string, len(states))
		for i, st := range states {
			labels[i] = st.String()
		}
		return sys.Chain.WriteDOT(out, fmt.Sprintf("scu-system-n%d", n), labels)
	case "fetchinc":
		glob, err := chains.FetchIncGlobal(n)
		if err != nil {
			return err
		}
		labels := make([]string, glob.Chain.N())
		for i := range labels {
			labels[i] = fmt.Sprintf("v%d", i+1)
		}
		return glob.Chain.WriteDOT(out, fmt.Sprintf("fetchinc-global-n%d", n), labels)
	case "parallel":
		sys, states, err := chains.ParallelSystem(n, q)
		if err != nil {
			return err
		}
		labels := make([]string, len(states))
		for i, st := range states {
			labels[i] = fmt.Sprintf("%v", st)
		}
		return sys.Chain.WriteDOT(out, fmt.Sprintf("parallel-system-n%d-q%d", n, q), labels)
	default:
		return fmt.Errorf("unknown chain family %q", chain)
	}
}

func verify(out io.Writer, name string, n int, ind, sys *chains.Analysis, lift []int, w float64) error {
	report, err := markov.VerifyLifting(ind.Chain, sys.Chain, lift)
	if err != nil {
		return fmt.Errorf("lifting: %w", err)
	}
	fmt.Fprintf(out, "%s individual chain: %d states\n", name, ind.Chain.N())
	fmt.Fprintf(out, "lifting verified: max flow error %.3g, max marginal error %.3g\n",
		report.MaxFlowError, report.MaxMarginalError)
	for pid := 0; pid < n; pid++ {
		wi, err := ind.IndividualLatency(pid)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  W_%d = %.4f  (n*W = %.4f, ratio %.6f)\n",
			pid, wi, float64(n)*w, wi/(float64(n)*w))
	}
	return nil
}
