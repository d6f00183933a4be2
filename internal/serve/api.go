package serve

// api.go resolves the wire schema of apitypes.go: request validation into
// engine values, and engine results into response bodies.

import (
	"encoding/json"
	"fmt"
	"time"

	"guidedta/internal/guide"
	"guidedta/internal/mc"
	"guidedta/internal/plant"
	"guidedta/internal/rcx"
	"guidedta/internal/schedule"
	"guidedta/internal/synth"
)

func (p *PlantRequest) resolve() (plant.Config, error) {
	cfg := plant.Config{Guides: plant.AllGuides}
	if p.Guides != "" {
		lvl, err := plant.ParseGuideLevel(p.Guides)
		if err != nil {
			return cfg, err
		}
		cfg.Guides = lvl
	}
	if len(p.Qualities) > 0 {
		for _, q := range p.Qualities {
			if q < 1 || q > 5 {
				return cfg, fmt.Errorf("quality %d out of range [1,5]", q)
			}
			cfg.Qualities = append(cfg.Qualities, plant.Quality(q))
		}
		return cfg, p.resolveParams(&cfg)
	}
	if p.Batches < 1 {
		return cfg, fmt.Errorf("need batches >= 1 or an explicit qualities list")
	}
	if p.Batches > 60 {
		return cfg, fmt.Errorf("batches %d too large (max 60)", p.Batches)
	}
	cfg.Qualities = plant.CycleQualities(p.Batches)
	return cfg, p.resolveParams(&cfg)
}

// resolveParams overlays the sparse wire params onto the paper defaults
// and validates the result; called after the quality list resolves so a
// params error never masks a quality error.
func (p *PlantRequest) resolveParams(cfg *plant.Config) error {
	if p.Params == nil {
		return nil
	}
	pp := plant.DefaultParams()
	overlay := func(dst *int32, src *int32) {
		if src != nil {
			*dst = *src
		}
	}
	overlay(&pp.BMove, p.Params.BMove)
	overlay(&pp.CMove, p.Params.CMove)
	overlay(&pp.CUp, p.Params.CUp)
	overlay(&pp.CDown, p.Params.CDown)
	overlay(&pp.TreatA, p.Params.TreatA)
	overlay(&pp.TreatB, p.Params.TreatB)
	overlay(&pp.TreatM3, p.Params.TreatM3)
	overlay(&pp.CastTime, p.Params.CastTime)
	overlay(&pp.TurnTime, p.Params.TurnTime)
	overlay(&pp.Deadline, p.Params.Deadline)
	if err := pp.Validate(); err != nil {
		return err
	}
	cfg.Params = pp
	return nil
}

// resolve overlays the client's options onto the server defaults through
// the mc.Options JSON contract. Reports always carry the full counters, so
// Profile is forced on. The caller validates the result once it has wired
// in what the model supplies (a plant's BestTime clock).
func (o OptionsRequest) resolve(defaults mc.Options) (mc.Options, error) {
	opts := defaults
	if len(o.raw) > 0 {
		if err := json.Unmarshal(o.raw, &opts); err != nil {
			return mc.Options{}, err
		}
	}
	opts.Profile = true
	return opts, nil
}

// serveDefaults is the options baseline every request overlays: the
// engine defaults under depth-first search.
func serveDefaults() mc.Options { return mc.DefaultOptions(mc.DFS) }

// budget converts the wire budget to the effective guide.Budget.
func (d *DiscoverRequest) budget() guide.Budget {
	var b guide.Budget
	if d.Budget != nil {
		b.ProbeStates = d.Budget.ProbeStates
		b.MaxProbes = d.Budget.MaxProbes
	}
	return b.WithDefaults()
}

// jobJSON renders a job under its lock-consistent snapshot.
func jobJSON(j *Job) JobJSON {
	st, out := j.snapshot()
	jj := JobJSON{
		ID:          j.ID,
		State:       st,
		Cache:       j.CacheState,
		Created:     j.Created.Format(time.RFC3339),
		Query:       j.Query,
		ModelSHA256: j.ModelSHA256,
		Key:         j.Key,
	}
	if out != nil {
		jj.Report = out.report
		jj.Schedule = out.schedule
		jj.Program = out.program
		jj.Discover = out.discover
		if out.resumed {
			jj.ResumedFrom = j.Key
		}
		jj.WarmStartedFrom = out.warmFrom
		if out.err != nil {
			jj.Error = out.err.Error()
		}
	}
	return jj
}

func scheduleJSON(s schedule.Schedule) *ScheduleJSON {
	out := &ScheduleJSON{
		Horizon: mc.TimeString(s.Horizon),
		Batches: s.Batches,
		Text:    s.Format(),
	}
	for _, l := range s.Lines {
		out.Commands = append(out.Commands, ScheduleCommand{
			Time:   mc.TimeString(l.Time),
			Unit:   l.Cmd.Unit,
			Action: l.Cmd.Action,
		})
	}
	return out
}

func programJSON(p rcx.Program, codec *synth.Codec) *ProgramJSON {
	return &ProgramJSON{
		Instructions: len(p),
		CommandCodes: codec.NumCommands(),
		Text:         p.String(),
	}
}

func discoverJSON(r *guide.Result) *DiscoverJSON {
	out := &DiscoverJSON{
		Guides:             r.Best.Guides.String(),
		Found:              r.Best.Found,
		Explored:           r.Best.Explored,
		Stored:             r.Best.Stored,
		Replayed:           r.Best.Replayed,
		Probes:             r.Probes,
		TimeToFirstSeconds: r.TimeToFirst.Seconds(),
		Baseline:           evaluationJSON(r.Baseline),
		Full:               evaluationJSON(r.Full),
	}
	for _, ev := range r.Evaluations {
		out.Evaluations = append(out.Evaluations, evaluationJSON(ev))
	}
	return out
}

func evaluationJSON(ev guide.Evaluation) EvaluationJSON {
	return EvaluationJSON{
		Guides:   ev.Guides.String(),
		Found:    ev.Found,
		Explored: ev.Explored,
		Stored:   ev.Stored,
		Abort:    string(ev.Abort),
		Replayed: ev.Replayed,
	}
}

func probeJSON(p guide.Progress) ProbeJSON {
	return ProbeJSON{
		Probe:    p.Probe,
		Total:    p.Total,
		Phase:    p.Phase,
		Guides:   p.Guides,
		Found:    p.Found,
		Explored: p.Explored,
		Stored:   p.Stored,
		Best:     p.Best,
	}
}

func snapshotJSON(s mc.Snapshot) SnapshotJSON {
	return SnapshotJSON{
		ElapsedSeconds: s.Elapsed.Seconds(),
		StatesExplored: s.StatesExplored,
		StatesPerSec:   s.StatesPerSec,
		Transitions:    s.Transitions,
		Waiting:        s.Waiting,
		PeakWaiting:    s.PeakWaiting,
		StatesStored:   s.StatesStored,
		StoreBytes:     s.StoreBytes,
		MemBytes:       s.MemBytes,
		MaxDepth:       s.MaxDepth,
		Deadends:       s.Deadends,
		Steals:         s.Steals,
		Final:          s.Final,
	}
}

// Status assembles the live service view.
func (s *Server) Status() StatusJSON {
	st := StatusJSON{
		State:              "serving",
		QueueDepth:         s.queue.depth(),
		QueueCap:           s.queue.cap(),
		Jobs:               s.jobs.counts(),
		ExecutionsStarted:  s.started.Load(),
		ExecutionsFinished: s.finished.Load(),
		ExecutionsSkipped:  s.skipped.Load(),
		WarmStarts:         s.warmHits.Load(),
		Cache:              s.cache.status(),
		Tenants:            s.queue.tenantStatus(),
	}
	if s.draining.Load() {
		st.State = "draining"
	}
	for i := range s.workers {
		w := &s.workers[i]
		w.mu.Lock()
		ws := WorkerStatus{Busy: w.key != ""}
		if ws.Busy {
			ws.Job = shortKey(w.key)
			ws.Seconds = time.Since(w.since).Seconds()
		}
		w.mu.Unlock()
		st.Workers = append(st.Workers, ws)
	}
	return st
}
