package main

import (
	"fmt"
	"io"
	"math"
	"time"
)

// runConfig is one run: a workload, a seed, how long to measure, and whether
// this is the traced run (per-layer metrics) or the plain one (end-to-end).
type runConfig struct {
	spec    *spec
	seed    uint64
	seconds float64
	trace   bool
	outDir  string
	log     io.Writer  // progress and the human-readable tables
	awake   *keepAwake // nil: closed-loop phases run without (keepawake.go)
}

const (
	rounds       = 5   // set-ups per run at least, each carrying a fifth of the timed phases
	setupMost    = 15  // set-ups per run at most,
	setupEnough  = 1.5 // stopping once they have taken this many seconds together
	warmSeconds  = 0.5 // closed loop, untimed, on every rig that is measured
	crossChecked = 200 // events checked against full-store naive evaluation

	// sliceLen cuts the saturation phase into the slices whose good
	// quartile is reported (see goodQuartile).
	sliceLen = 400 * time.Millisecond
)

// phase lengths as shares of -seconds. The plain run spends it on the
// saturation phase and the paced phase; the traced run on a short saturation,
// the plain and the traced paced phase, the replay through the layers, the
// round-trip probe and the subscribe probe.
const (
	shareSaturation = 0.5
	sharePaced      = 0.5

	shareTracedSaturation = 0.10
	shareTracedPaced      = 0.25
	shareTracedLayers     = 0.30
	shareTracedProbe      = 0.05
)

// part is a share of -seconds, to the millisecond so that a phase meant to
// hold a whole number of slices does.
func (c runConfig) part(share float64) time.Duration {
	return time.Duration(math.Round(c.seconds*share*1e3)) * time.Millisecond
}

// flatOut runs the closed loop on r for dur with the processors kept awake.
func (c runConfig) flatOut(r *rig, dur, slice time.Duration) ([]sample, error) {
	c.awake.spin(true)
	defer c.awake.spin(false)
	return r.src.saturate(dur, slice)
}

func run(cfg runConfig) (result, error) {
	pop, err := generate(cfg.spec, cfg.seed)
	if err != nil {
		return result{}, err
	}
	if err := pop.crossCheck(crossChecked); err != nil {
		return result{}, err
	}
	if cfg.trace {
		return runTraced(cfg, pop)
	}
	return runPlain(cfg, pop)
}

// pacedStats is what paced phases report: per window (see windowNs), the
// sorted delivery latencies and publish acknowledgement times in ns, and the
// pacer's lateness accounting.
type pacedStats struct {
	lat, acks     [][]int64
	emitted, late int64
	lateMax       int64
}

// pacedPhase runs the open loop for dur and adds what it measured to st. tr,
// when set, receives its spans.
func (st *pacedStats) pacedPhase(r *rig, dur time.Duration, tr *tracer) error {
	p, err := r.src.paced(dur, tr)
	lat, acks := r.sink.recorded(), r.src.acks
	r.src.acks = nil
	for _, w := range lat {
		sortNs(w)
	}
	for _, w := range acks {
		sortNs(w)
	}
	st.lat, st.acks = append(st.lat, lat...), append(st.acks, acks...)
	st.emitted, st.late, st.lateMax = st.emitted+p.emitted, st.late+p.late, max(st.lateMax, p.lateMax)
	return err
}

func (st *pacedStats) lateShare() float64 { return float64(st.late) / float64(max(st.emitted, 1)) }

// windowed is the good quartile over a phase's windows of each window's q-th
// percentile, in µs. Windows too thin for the percentile are left out unless
// there is nothing else.
func windowed(windows [][]int64, q float64) float64 {
	var per, thin []float64
	for _, w := range windows {
		switch {
		case float64(len(w))*(1-q) >= 10:
			per = append(per, percentileNs(w, q)/1e3)
		case len(w) > 0:
			thin = append(thin, percentileNs(w, q)/1e3)
		}
	}
	if len(per) == 0 {
		per = thin
	}
	return goodQuartile(per, false)
}

// flatten merges the windows into one sorted slice.
func flatten(windows [][]int64) []int64 {
	var all []int64
	for _, w := range windows {
		all = append(all, w...)
	}
	sortNs(all)
	return all
}

// finish verifies what a rig carried and tears it down.
func finish(cfg runConfig, r *rig) (verdict, error) {
	var opErrs int64
	if r.sub != nil {
		opErrs = r.sub.opErrs
	}
	v := r.sink.led.verify(r.src.errs + opErrs)
	bad, rerr := r.reconcile()
	v.failed += bad
	if rerr != nil {
		fmt.Fprintf(cfg.log, "# reconcile: %v\n", rerr)
	}
	if err := r.close(); err != nil {
		return v, fmt.Errorf("tear-down: %w", err)
	}
	return v, nil
}

// plainRun gathers what the rounds of a plain run measure.
type plainRun struct {
	sat   sliceRates
	paced pacedStats
}

// round drives one freshly set-up rig through a warm-up, one segment of the
// saturation phase and one of the paced phase.
func (p *plainRun) round(cfg runConfig, r *rig) error {
	churn := r.pop.spec.churn
	if churn {
		r.sub.startChurn(1, false)
	}
	// Warm-up: pools filled, buffers grown, connections past slow start.
	if _, err := cfg.flatOut(r, time.Duration(warmSeconds*float64(time.Second)), time.Hour); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	samples, err := cfg.flatOut(r, cfg.part(shareSaturation/rounds), sliceLen)
	if err != nil {
		return fmt.Errorf("saturation: %w", err)
	}
	p.sat.add(samples)
	if err := p.paced.pacedPhase(r, cfg.part(sharePaced/rounds), nil); err != nil {
		return fmt.Errorf("paced: %w", err)
	}
	if churn {
		return r.sub.stopChurn()
	}
	return nil
}

// runPlain is the run end-to-end metrics come from; nothing is traced. The
// rig is set up several times, as setup_s needs anyway, and each of the
// first `rounds` set-ups carries one round of the timed phases before it is
// torn down. The phases' slices are thereby spread over the whole run — the
// host's slow spells last seconds — and over several set-ups: how fast the
// overlay line runs flat out, above all, differs from one set-up to the next
// in the same process (README, "Why the good quartile").
func runPlain(cfg runConfig, pop *population) (result, error) {
	var (
		p         plainRun
		secs, mem []float64
		spent     float64
		total     verdict
	)
	for n := 1; ; n++ {
		r, err := measureSetup(pop, buildRig)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		secs, mem = append(secs, r.cost.seconds), append(mem, float64(r.cost.memBytes))
		spent += r.cost.seconds
		if n <= rounds {
			if err := p.round(cfg, r); err != nil {
				return result{}, err
			}
		}
		v, err := finish(cfg, r)
		if err != nil {
			return result{}, err
		}
		total.add(v)
		// A set-up of milliseconds needs more repeats for a steady reading.
		if n >= rounds && (spent >= setupEnough || n == setupMost) {
			break
		}
	}
	fmt.Fprintf(cfg.log, "# oracle: %v\n", total)
	sp := pop.spec
	deliveries, events, cpu := p.sat.good()
	samples := 0
	for _, w := range p.paced.lat {
		samples += len(w)
	}
	fmt.Fprintf(cfg.log, "# %d set-ups; saturation %.0f events/s; paced %d events/s, %d samples in %d windows, late share %.5f, late max %.0f us\n",
		len(secs), events, sp.pacedRate, samples, len(p.paced.lat), p.paced.lateShare(), float64(p.paced.lateMax)/1e3)
	values := map[string]float64{
		"setup_s":            goodQuartile(secs, false),
		"deliveries_s":       deliveries,
		"cpu_us_per_event":   cpu,
		"delivery_p50_us":    windowed(p.paced.lat, 0.50),
		"publish_ack_p50_us": windowed(p.paced.acks, 0.50),
		"mem_bytes_per_sub":  median(mem) / float64(sp.subs),
	}
	return result{Correct: total.failed == 0, Attempted: total.attempted, Failed: total.failed, Metrics: fill(endToEnd, values)}, nil
}
