package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/experiments"
	"repro/internal/table"
)

// paperSpecs are the experiments behind the paper's ten panels; each
// 3.5x spec also yields the matching 3.6x panel.
var paperSpecs = []string{"3.2a", "3.2b", "3.2c", "3.3", "3.5a", "3.5b", "3.5c"}

// paperPanels are the figure IDs those specs produce, each with a
// committed reference CSV under figures-out/.
var paperPanels = []string{"3.2a", "3.2b", "3.2c", "3.3", "3.5a", "3.6a", "3.5b", "3.6b", "3.5c", "3.6c"}

// figuresState is one set-up of paper-figures: the specs in the order
// the seed chose and the reference CSVs to check against.
type figuresState struct {
	specs  []experiments.Spec
	golden map[string][]byte
}

// setupFigures reads the reference CSVs and warms the engine with one
// quick pass of the same specs. The paper's numbers are pinned at seed
// 1 by the references, so the workload seed only permutes the order
// the specs are handed to RunAll.
func setupFigures(c config) (*figuresState, error) {
	s := &figuresState{golden: make(map[string][]byte)}
	for _, id := range paperPanels {
		b, err := os.ReadFile(filepath.Join(c.root, "figures-out", "fig-"+id+".csv"))
		if err != nil {
			return nil, fmt.Errorf("reference figure: %w", err)
		}
		s.golden[id] = b
	}
	for _, id := range paperSpecs {
		spec, err := experiments.Find(id)
		if err != nil {
			return nil, err
		}
		s.specs = append(s.specs, spec)
	}
	r := rand.New(rand.NewSource(int64(c.seed)))
	r.Shuffle(len(s.specs), func(i, j int) { s.specs[i], s.specs[j] = s.specs[j], s.specs[i] })
	if _, err := experiments.RunAll(s.specs, experiments.Options{Quick: true, Trials: 1, Seed: 1}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

// regenerate runs the specs through RunAll at paper fidelity and
// renders every panel's CSV, as `figures -csv` does. It returns the
// CSVs by figure ID and the figures themselves.
func (s *figuresState) regenerate(tr *tracer, parent int, o experiments.Options) (map[string][]byte, []*table.Figure, error) {
	var outs []experiments.Output
	_, err := tr.do(parent, "experiments.RunAll", func(int) error {
		var err error
		outs, err = experiments.RunAll(s.specs, o)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	csvs := make(map[string][]byte)
	var figs []*table.Figure
	_, err = tr.do(parent, "table.WriteCSV", func(int) error {
		for _, out := range outs {
			for _, f := range out.Figures {
				var buf bytes.Buffer
				if err := f.WriteCSV(&buf); err != nil {
					return err
				}
				csvs[f.ID] = buf.Bytes()
				figs = append(figs, f)
			}
		}
		return nil
	})
	return csvs, figs, err
}

// checkFigures is the paper-figures correctness gate: every panel's CSV
// must equal its committed reference byte for byte.
func checkFigures(got, golden map[string][]byte) error {
	for _, id := range paperPanels {
		g, ok := got[id]
		if !ok {
			return fmt.Errorf("figure %s: not produced", id)
		}
		if !bytes.Equal(g, golden[id]) {
			return fmt.Errorf("figure %s: CSV differs from figures-out/fig-%s.csv at line %d", id, id, firstDiffLine(g, golden[id]))
		}
	}
	return nil
}

// firstDiffLine is the 1-based line where a and b first differ.
func firstDiffLine(a, b []byte) int {
	line := 1
	for i := 0; i < len(a) && i < len(b) && a[i] == b[i]; i++ {
		if a[i] == '\n' {
			line++
		}
	}
	return line
}

// runFigures is the paper-figures workload: one unit is one full
// regeneration of the ten panels.
func runFigures(c config) (result, error) {
	res := result{Correct: true, Metrics: metrics{}}
	setupS, units, err := measureUnits(c, func() (*figuresState, error) { return setupFigures(c) }, func(s *figuresState) (func(), error) {
		csvs, _, err := s.regenerate(nil, 0, experiments.DefaultOptions())
		return func() {
			res.Attempted++
			if err := checkFigures(csvs, s.golden); err != nil {
				res.Failed++
				res.Correct = false
				fmt.Fprintln(os.Stderr, "paper-figures:", err)
			}
		}, err
	})
	if err != nil {
		return result{}, err
	}
	endToEnd(res.Metrics, setupS, units)
	return res, nil
}
