package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// JSONResult is the machine-readable envelope emitted by `ncbench -json`:
// the experiment ID plus its measurement series, one object per sweep
// point, numeric where the value parses as a number.
type JSONResult struct {
	Experiment string           `json:"experiment"`
	Points     []map[string]any `json:"points"`
}

// RunJSON runs an experiment and re-emits its measurement series as JSON.
// Every experiment with a CSV series supports it; the few that print only
// prose tables (e.g. table1) return an error naming the limitation.
func RunJSON(e Experiment, cfg Config) error {
	cfg = cfg.withDefaults()
	out := cfg.Out
	var buf bytes.Buffer
	csvCfg := cfg
	csvCfg.CSV = true
	csvCfg.Out = &buf
	if err := e.Run(csvCfg); err != nil {
		return err
	}
	res, err := csvToJSON(e.ID, buf.String())
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// csvToJSON converts a one-header CSV series into the JSON envelope.
func csvToJSON(id, csv string) (JSONResult, error) {
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) == 0 || !strings.Contains(lines[0], ",") {
		return JSONResult{}, fmt.Errorf("experiment %s emits no tabular series; -json is unsupported for it", id)
	}
	cols := strings.Split(lines[0], ",")
	res := JSONResult{Experiment: id, Points: []map[string]any{}}
	for _, ln := range lines[1:] {
		fields := strings.Split(ln, ",")
		pt := make(map[string]any, len(cols))
		for i, f := range fields {
			if i >= len(cols) {
				break
			}
			if v, err := strconv.ParseFloat(f, 64); err == nil {
				pt[cols[i]] = v
			} else {
				pt[cols[i]] = f
			}
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}
