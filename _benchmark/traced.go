package main

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// runTraced is the run per-layer metrics come from. It drives the same rig
// as the plain run — a short saturation, then the paced phase once untraced
// and once with spans around every publish and receipt (Part B) — and then
// replays the population through the layers one public call at a time
// (Part A, spine.go). Everything is recorded from this package; the program
// carries no probes.
func runTraced(cfg runConfig, pop *population) (result, error) {
	sp := pop.spec
	m := map[string]float64{}
	tr := newTracer()

	r, err := measureSetup(pop, buildRig)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	var peak *peakPoller
	if sp.federated {
		peak = pollQueuedBytes(r.nodes)
	}
	if sp.churn {
		r.sub.startChurn(1, false)
	}
	if _, err := cfg.flatOut(r, 2*time.Duration(warmSeconds*float64(time.Second)), time.Hour); err != nil {
		return result{}, fmt.Errorf("warm-up: %w", err)
	}
	samples, err := cfg.flatOut(r, cfg.part(shareTracedSaturation), sliceLen)
	if err != nil {
		return result{}, fmt.Errorf("saturation: %w", err)
	}
	var sat sliceRates
	sat.add(samples)
	_, events, cpuPerEvent := sat.good()
	var plain, traced pacedStats
	if err := plain.pacedPhase(r, cfg.part(shareTracedPaced), nil); err != nil {
		return result{}, fmt.Errorf("paced: %w", err)
	}
	if err := traced.pacedPhase(r, cfg.part(shareTracedPaced), tr); err != nil {
		return result{}, fmt.Errorf("traced paced: %w", err)
	}
	tr.link()
	if sp.churn {
		if err := r.sub.stopChurn(); err != nil {
			return result{}, err
		}
	}

	// loadgen.*: the plain paced phase, read further out than the gated
	// percentiles go.
	all := flatten(plain.lat)
	m["loadgen.events_s"] = events
	m["loadgen.samples"] = float64(len(all))
	m["loadgen.delivery_p90_us"] = windowed(plain.lat, 0.9)
	m["loadgen.delivery_p99_us"] = percentileNs(all, 0.99) / 1e3
	m["loadgen.delivery_p999_us"] = percentileNs(all, 0.999) / 1e3
	m["loadgen.delivery_top_percentile"] = topPercentile(len(all), []float64{0.5, 0.9, 0.99, 0.999, 0.9999})
	m["loadgen.late_max_us"] = float64(plain.lateMax) / 1e3
	m["loadgen.late_share"] = plain.lateShare()
	plainP50, tracedP50 := windowed(plain.lat, 0.5), windowed(traced.lat, 0.5)
	m["trace.overhead_share"] = (tracedP50 - plainP50) / plainP50
	fmt.Fprintf(cfg.log, "# trace.overhead_share: traced paced delivery p50 %.1f us against plain %.1f us (base)\n", tracedP50, plainP50)

	fanout := float64(r.src.expected) / float64(max(r.src.published, 1))
	if sp.federated {
		m["netoverlay.hop_us"] = plainP50 / 2
		var fwd, shed, subMsgs uint64
		for _, n := range r.nodes {
			st := n.stats()
			fwd, shed, subMsgs = fwd+st.forwarded, shed+st.shed, subMsgs+st.subMsgs
		}
		m["netoverlay.forwarded"], m["netoverlay.shed"], m["netoverlay.sub_msgs"] = float64(fwd), float64(shed), float64(subMsgs)
		m["netoverlay.queued_bytes_peak"] = float64(peak.stop())
	} else {
		if err := tcpProbes(cfg, r, m); err != nil {
			return result{}, err
		}
		st := r.srv.stats()
		m["broker.published"], m["broker.delivered"], m["broker.dropped"] = float64(st.published), float64(st.delivered), float64(st.dropped)
	}
	cfg.awake.spin(true)
	opRates, err := r.subscribeOps(cfg.part(shareTracedProbe))
	cfg.awake.spin(false)
	if err != nil {
		return result{}, fmt.Errorf("subscribe probe: %w", err)
	}
	m["loadgen.subscribe_ops_s"] = goodQuartile(opRates, true)
	cost := r.cost
	v, err := finish(cfg, r)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(cfg.log, "# oracle: %v\n", v)

	stage, mismatches, err := runLayers(pop, tr, cfg.part(shareTracedLayers), m)
	if err != nil {
		return result{}, fmt.Errorf("layer replay: %w", err)
	}
	v.failed += mismatches
	if mismatches != 0 {
		fmt.Fprintf(cfg.log, "# layer replay: %d match counts differ from the oracle's\n", mismatches)
	}
	if !sp.federated {
		m["netbroker.delivery_self_us"] = cpuPerEvent/fanout - m["broker.cpu_us_per_delivery"]
		m["netbroker.mem_bytes_per_sub"] = float64(cost.memBytes)/float64(sp.subs) - m["broker.mem_bytes_per_sub"]
	}

	// What the outside can account for of one delivery's paced latency: the
	// stages an event crosses once, plus the per-copy stages once for every
	// copy written before the average one.
	var accounted float64
	if sp.federated {
		hop := stage["wire.encode_event"] + stage["router.flowqueue_offer_pop"] + stage["netbroker.frame_write"] + stage["wire.decode_alias"]
		accounted = 2*hop + 3*m["core.match_into_ns"]
	} else {
		once := stage["wire.encode_event"] + stage["netbroker.frame_write"] + stage["wire.decode_alias"] +
			stage["core.match_into"] + stage["broker.publish"] + stage["broker.queue_wait"]
		perCopy := stage["netbroker.delivery_encode"] + stage["netbroker.frame_write"]
		accounted = once + perCopy*(fanout+1)/2
	}
	meanLat := meanNs(all)
	m["trace.unaccounted_share"] = (meanLat - accounted) / meanLat
	fmt.Fprintf(cfg.log, "# trace.unaccounted_share: %.1f us of stage self times against a paced mean delivery latency of %.1f us (base)\n", accounted/1e3, meanLat/1e3)
	m["loadgen.failed_share"] = v.failedShare()

	path, err := tr.write(cfg.outDir, sp.name, cfg.seed)
	if err != nil {
		return result{}, fmt.Errorf("trace: %w", err)
	}
	fmt.Fprintf(cfg.log, "# trace: %d spans, %s\n", len(tr.spans), path)
	return result{Correct: v.failed == 0, Attempted: v.attempted, Failed: v.failed, Metrics: fill(perLayer, m)}, nil
}

const probeRoundTrips = 400

// tcpProbes measures the serving rig's round trips on the loaded, otherwise
// idle server: a raw publish that matches nothing (the floor of every
// publish acknowledgement), the client library's publish and batch against
// it, and the raw Subscribe and Unsubscribe.
func tcpProbes(cfg runConfig, r *rig, m map[string]float64) error {
	nomatch := func(i int) Event {
		// seq -1-i carries the last subscription's group label; a label no
		// filter uses turns it into an event nothing matches.
		return newEvent([]Attr{intAttr("bucket", -1), intAttr("grp", -1), intAttr("seq", int64(-1-i)), intAttr("ts", 0)})
	}
	rtts := make([]int64, probeRoundTrips)
	for i := range rtts {
		t0 := nowNs()
		if err := r.src.send(nomatch(i)); err != nil {
			return fmt.Errorf("no-match publish: %w", err)
		}
		rtts[i] = nowNs() - t0
	}
	r.probes += probeRoundTrips
	sortNs(rtts)
	m["netbroker.publish_rtt_nomatch_us"] = percentileNs(rtts, 0.5) / 1e3

	lib, err := dialLibClient(r.srv.addr)
	if err != nil {
		return err
	}
	defer lib.close()
	for i := range rtts {
		t0 := nowNs()
		if _, err := lib.publish(nomatch(i)); err != nil {
			return fmt.Errorf("client publish: %w", err)
		}
		rtts[i] = nowNs() - t0
	}
	r.probes += probeRoundTrips
	sortNs(rtts)
	m["netbroker.client_publish_rtt_us"] = percentileNs(rtts, 0.5) / 1e3
	batch := make([]Event, batchSize)
	for i := range batch {
		batch[i] = nomatch(i)
	}
	var perEvent []float64
	for i := 0; i < batchRepeats; i++ {
		t0 := nowNs()
		if _, err := lib.publishBatch(batch); err != nil {
			return fmt.Errorf("client batch: %w", err)
		}
		perEvent = append(perEvent, float64(nowNs()-t0)/1e3/batchSize)
	}
	r.probes += batchRepeats * batchSize
	m["netbroker.client_batch64_us_per_event"] = median(perEvent)

	// Round trips one at a time, beside the paced publisher: between two
	// idle goroutines a round trip is as fast as the scheduler wakes them.
	r.sub.startChurn(1, true)
	_, perr := r.src.paced(cfg.part(shareTracedProbe), nil)
	r.sink.recorded()
	r.src.acks = nil
	if err := errors.Join(perr, r.sub.stopChurn()); err != nil {
		return fmt.Errorf("round-trip probe: %w", err)
	}
	sortNs(r.sub.subRTT)
	sortNs(r.sub.unsubRTT)
	m["netbroker.subscribe_rtt_us"] = percentileNs(r.sub.subRTT, 0.5) / 1e3
	m["netbroker.unsubscribe_rtt_us"] = percentileNs(r.sub.unsubRTT, 0.5) / 1e3
	return nil
}

// peakPoller reads the overlay nodes' queued bytes ten times a second and
// keeps the highest sum seen.
type peakPoller struct {
	quit chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func pollQueuedBytes(nodes []overlayNode) *peakPoller {
	p := &peakPoller{quit: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.quit:
				return
			case <-t.C:
				var sum uint64
				for _, n := range nodes {
					sum += n.stats().queuedBytes
				}
				p.peak = max(p.peak, sum)
			}
		}
	}()
	return p
}

func (p *peakPoller) stop() uint64 {
	close(p.quit)
	p.wg.Wait()
	return p.peak
}
