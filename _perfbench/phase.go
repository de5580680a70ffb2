package main

// phase is the end-to-end outcome of one measured phase of a workload.
type phase struct {
	// setup is the repeatable part of set-up (everything but workload
	// generation), the median over the phase's repetitions of it.
	setup  float64
	setupN int
	// throughput is the workload's unit of work per host second.
	throughput  float64
	throughputN int
	// latency and tail are the workload's typical and tail latency in
	// seconds, over latN samples.
	latency, tail float64
	latN          int
	// rss holds the peak resident set of each unit of work (pass, cycle
	// or round).
	rss []float64
	// layer holds the per-layer metrics of a traced phase.
	layer map[string]float64
}

// values returns the phase's end-to-end metrics; gen is the one-time
// workload generation time, the part of set-up a process pays once.
func (p phase) values(gen float64) map[string]float64 {
	return map[string]float64{
		"setup_s":          gen + p.setup,
		"throughput_per_s": p.throughput,
		"latency_s":        p.latency,
		"latency_tail_s":   p.tail,
		"peak_rss_bytes":   median(p.rss),
	}
}

// measure runs fn for the whole run untraced or, with tracing on, for
// half of it untraced and then for the other half traced on te, and fills
// rep: end-to-end metrics always from the untraced phase, per-layer
// metrics and the tracing overhead from the traced one. The overhead of
// each metric is how much worse the traced half reads (traced minus
// untraced where lower is better, untraced minus traced where higher is),
// so a costlier tracer always shows as a larger overhead.
func measure(e, te *env, rep *report, gen float64, fn func(pe *env, seconds float64) phase) {
	if !e.trace {
		u := fn(e.phaseEnv(false), e.seconds)
		setE2E(rep, u, gen)
		return
	}
	u := fn(e.phaseEnv(false), e.seconds/2)
	setE2E(rep, u, gen)
	t := fn(te, e.seconds/2)
	uv, tv := u.values(gen), t.values(gen)
	for _, m := range e2eMetrics {
		d := tv[m.name] - uv[m.name]
		if m.better == "higher" {
			d = -d
		}
		rep.layer["trace.overhead."+m.name] = d
	}
	for k, v := range t.layer {
		rep.layer[k] = v
	}
	rep.layer["trace.spans"] = float64(te.tr.count())
	rep.spans = te.tr
}

func setE2E(rep *report, p phase, gen float64) {
	for k, v := range p.values(gen) {
		rep.e2e[k] = v
	}
	rep.samples["setup_s"] = p.setupN
	rep.samples["throughput_per_s"] = p.throughputN
	rep.samples["latency"] = p.latN
	rep.samples["peak_rss_bytes"] = len(p.rss)
}
