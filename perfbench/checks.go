package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/realfmla"
	"repro/internal/value"
)

// The checks below compare the program's outputs with computations made
// in this file or with properties the method must have. None of them
// compares against stored output.

// sameCandidates requires two deliveries to be bit-identical: tuples,
// constraint formulas, and every field of the measure.
func sameCandidates(want, got []core.MeasuredCandidate) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d candidates, want %d", len(got), len(want))
	}
	for i := range want {
		a, b := want[i], got[i]
		if !a.Tuple.Equal(b.Tuple) {
			return fmt.Errorf("candidate %d: tuple %v, want %v", i, b.Tuple, a.Tuple)
		}
		if realfmla.Fingerprint(a.Phi) != realfmla.Fingerprint(b.Phi) {
			return fmt.Errorf("candidate %d: constraint differs", i)
		}
		if err := sameMeasure(a.Measure, b.Measure); err != nil {
			return fmt.Errorf("candidate %d: %w", i, err)
		}
	}
	return nil
}

func sameMeasure(a, b core.Result) error {
	if math.Float64bits(a.Value) != math.Float64bits(b.Value) || a.Method != b.Method ||
		a.Exact != b.Exact || a.Samples != b.Samples || a.SamplesDrawn != b.SamplesDrawn ||
		a.Rounds != b.Rounds || a.RelevantK != b.RelevantK || a.K != b.K ||
		(a.Rat == nil) != (b.Rat == nil) || (a.Rat != nil && a.Rat.Cmp(b.Rat) != 0) {
		return fmt.Errorf("measure %+v, want %+v", b, a)
	}
	return nil
}

// afprasSamples is the Hoeffding sample count ⌈ln(2/δ)/(2ε²)⌉ every
// fixed-budget AFPRAS candidate must draw (18445 at ε=0.01, δ=0.05).
func afprasSamples(eps, delta float64) int {
	return int(math.Ceil(math.Log(2/delta) / (2 * eps * eps)))
}

// checkMeasures checks the properties every delivered measure has: μ in
// [0, 1]; a constant-true constraint has μ = 1; a fixed-budget AFPRAS
// estimate drew exactly the Hoeffding count.
func checkMeasures(cands []core.MeasuredCandidate) error {
	m := afprasSamples(eps, delta)
	for i, c := range cands {
		v := c.Measure.Value
		if !(v >= 0 && v <= 1) {
			return fmt.Errorf("candidate %d: μ = %v outside [0, 1]", i, v)
		}
		if _, ok := c.Phi.(realfmla.FTrue); ok && v != 1 {
			return fmt.Errorf("candidate %d: constant-true constraint has μ = %v", i, v)
		}
		if c.Measure.Method == core.MethodAFPRAS && c.Measure.Samples != m {
			return fmt.Errorf("candidate %d: AFPRAS drew %d samples, want %d", i, c.Measure.Samples, m)
		}
	}
	return nil
}

// checkConstantTrue measures a constant-true formula directly, on the
// sampling path too: μ must be exactly 1.
func checkConstantTrue(opts core.Options) error {
	for _, o := range []core.Options{opts, {Seed: opts.Seed, DisableExact: true, ForceSampling: true, Workers: 1}} {
		r, err := core.New(o).MeasureFormula(realfmla.FTrue{}, eps, delta)
		if err != nil {
			return err
		}
		if r.Value != 1 {
			return fmt.Errorf("constant-true constraint measured %v (method %s)", r.Value, r.Method)
		}
	}
	return nil
}

// checkRaceAgainstBatch ranks the race's whole candidate set with a
// full-budget MeasureBatch and checks the race's winners against it: a
// winner that ran the full budget reports the batch value bit for bit,
// and every winner's full-budget value is within 2ε of the k-th best.
func checkRaceAgainstBatch(w *inproc, fields [][]exec.Candidate) error {
	if err := checkMeasures(w.first[0]); err != nil {
		return err
	}
	all := fields[0]
	phis := make([]realfmla.Formula, len(all))
	for i, c := range all {
		phis[i] = c.Phi
	}
	// Outside the timed phase the reference may use every core; pool
	// width never changes values.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	ref := w.opts
	ref.PoolWorkers = 0
	full, errs := core.MeasureBatch(ref, phis, eps, delta)
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("batch candidate %d: %w", i, err)
		}
	}
	order := make([]int, len(full))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return full[order[a]].Value > full[order[b]].Value })
	k := min(topK, len(order))
	kth := full[order[k-1]].Value
	byKey := make(map[string]int, len(all))
	for i, c := range all {
		byKey[c.Tuple.Key()] = i
	}
	m := afprasSamples(eps, delta)
	for _, c := range w.first[0] {
		idx, ok := byKey[c.Tuple.Key()]
		if !ok {
			return fmt.Errorf("winner %v is not a candidate", c.Tuple)
		}
		r := full[idx]
		if c.Measure.Method == core.MethodAFPRASRace && c.Measure.SamplesDrawn == m &&
			math.Float64bits(c.Measure.Value) != math.Float64bits(r.Value) {
			return fmt.Errorf("winner %v ran the full budget but reports %v, batch %v", c.Tuple, c.Measure.Value, r.Value)
		}
		if r.Value < kth-2*eps {
			return fmt.Errorf("winner %v has full-budget μ %v, below the k-th best %v by more than 2ε", c.Tuple, r.Value, kth)
		}
	}
	fmt.Printf("check: race winners agree with a full-budget ranking of %d candidates (k-th best %.4f)\n", len(all), kth)
	return nil
}

// checkFixedFig1 checks CompetitiveAdvantage's derivation count against
// a nested-loop count made here, and the sample-count contract on every
// query.
func checkFixedFig1(w *inproc, _ [][]exec.Candidate) error {
	for qi, cands := range w.first {
		if err := checkMeasures(cands); err != nil {
			return fmt.Errorf("query %d: %w", qi, err)
		}
	}
	want := countCompetitiveAdvantage(w.d.Tuples("Products"), w.d.Tuples("Market"))
	if got := w.infos[0].Derivations; got != want {
		return fmt.Errorf("CompetitiveAdvantage: %d derivations, nested-loop count %d", got, want)
	}
	fmt.Printf("check: CompetitiveAdvantage derivations %d match the nested-loop count\n", want)
	return nil
}

// countCompetitiveAdvantage counts the pairs (P, M) with P.seg = M.seg
// whose predicate P.rrp * P.dis <= M.rrp * M.dis is not false on
// constants: any null operand leaves the predicate open.
func countCompetitiveAdvantage(products, market []value.Tuple) int {
	n := 0
	for _, p := range products {
		for _, m := range market {
			if !sameBase(p[1], m[0]) {
				continue
			}
			if allConst(p[2], p[3], m[1], m[2]) && !(p[2].Float()*p[3].Float() <= m[1].Float()*m[2].Float()) {
				continue
			}
			n++
		}
	}
	return n
}

// sameBase is equality of base values under naive evaluation: equal
// constants, or the same marked null.
func sameBase(a, b value.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == value.BaseNull {
		return a.NullID() == b.NullID()
	}
	return a.Str() == b.Str()
}

func allConst(vs ...value.Value) bool {
	for _, v := range vs {
		if v.Kind() != value.NumConst {
			return false
		}
	}
	return true
}
