package trace

import (
	"fmt"
	"sort"

	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/obs"
	"github.com/resccl/resccl/internal/sim"
	"github.com/resccl/resccl/internal/topo"
)

// BuildTimeline converts a simulation result into an observability
// timeline: one track per kernel thread block (including TBs that never
// fired), one track per communication link that carried traffic, and a
// fault lane when faults were injected. The result must come from a run
// configured with RecordTimeline; BuildTimeline returns nil when no
// instance records are present, so callers can gate export on it.
//
// Track contents inherit the simulator's determinism: instance records
// arrive in completion order and links are sorted by resource ID, so the
// same inputs always build byte-identical timelines.
func BuildTimeline(name string, k *kernel.Kernel, tp *topo.Topology, res *sim.Result) *obs.Timeline {
	if res == nil || len(res.Timeline) == 0 {
		return nil
	}
	tl := &obs.Timeline{Name: name, Completion: res.Completion}

	// Thread-block tracks, ascending kernel-local ID. Index by ID so
	// instance records append in O(1).
	tl.TBs = make([]obs.TBTrack, len(k.TBs))
	for i, tb := range k.TBs {
		tl.TBs[i] = obs.TBTrack{ID: tb.ID, Rank: int(tb.Rank), Label: tb.Label}
	}

	linkSlices := make(map[topo.LinkID][]obs.Slice)
	for _, span := range res.Timeline {
		slice := obs.Slice{
			Name:  fmt.Sprintf("t%d mb%d %d→%d", span.Task, span.MB, span.Src, span.Dst),
			Start: span.Start,
			End:   span.End,
		}
		if span.SendTB >= 0 && span.SendTB < len(tl.TBs) {
			tl.TBs[span.SendTB].Slices = append(tl.TBs[span.SendTB].Slices, slice)
		}
		if span.RecvTB >= 0 && span.RecvTB < len(tl.TBs) && span.RecvTB != span.SendTB {
			tl.TBs[span.RecvTB].Slices = append(tl.TBs[span.RecvTB].Slices, slice)
		}
		for _, l := range span.Links {
			linkSlices[l] = append(linkSlices[l], slice)
		}
	}

	links := make([]topo.LinkID, 0, len(linkSlices))
	for l := range linkSlices {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })
	for _, l := range links {
		tl.Links = append(tl.Links, obs.LinkTrack{Name: tp.DescribeResource(l), Slices: linkSlices[l]})
	}

	for _, f := range res.Faults {
		end := f.End
		if end <= f.Time {
			end = res.Completion
		}
		tl.Faults = append(tl.Faults, obs.FaultWindow{Kind: f.Kind, Detail: f.Detail, Start: f.Time, End: end})
	}
	return tl
}

// Simulate runs sim.RunConcurrent and records what it observed — the
// one place a simulation's counters, link gauges and timelines enter the
// obs sinks. Into m it adds sim.runs (+1), sim.events, its split by kind
// (sim.events.latency_done, .data_done, .stale_data_done and .fault),
// sim.flushes (deferred rate re-solves), every session's sim.instances
// and a "link.busy_seconds.<link>" gauge per busy link, all
// accumulating across runs. When cfg.RecordTimeline is set it builds
// one timeline per session, named names[i], adds each to tr and returns
// them aligned with cfg.Sessions. A non-nil span is ended as soon as the
// simulator returns, so it times the simulation and not the recording.
// The sinks and the span are nil-safe; with all three nil Simulate adds
// nothing over sim.RunConcurrent.
func Simulate(cfg sim.MultiConfig, names []string, m *obs.Metrics, tr *obs.Trace, span *obs.ActiveSpan) (*sim.MultiResult, []*obs.Timeline, error) {
	mr, err := sim.RunConcurrent(cfg)
	span.End()
	if err != nil {
		return nil, nil, err
	}
	if m != nil {
		m.Add("sim.runs", 1)
		m.Add("sim.events", int64(mr.Events))
		m.Add("sim.events.latency_done", int64(mr.EventsByKind.LatencyDone))
		m.Add("sim.events.data_done", int64(mr.EventsByKind.DataDone))
		m.Add("sim.events.stale_data_done", int64(mr.EventsByKind.StaleDataDone))
		m.Add("sim.events.fault", int64(mr.EventsByKind.Fault))
		m.Add("sim.flushes", int64(mr.Flushes))
		for _, res := range mr.Sessions {
			m.Add("sim.instances", int64(res.Instances))
		}
		for l, sec := range mr.LinkBusy {
			m.AddGauge("link.busy_seconds."+cfg.Topo.DescribeResource(l), sec)
		}
	}
	if !cfg.RecordTimeline {
		return mr, nil, nil
	}
	tls := make([]*obs.Timeline, len(mr.Sessions))
	for i, res := range mr.Sessions {
		tls[i] = BuildTimeline(names[i], cfg.Sessions[i].Kernel, cfg.Topo, res)
		tr.AddTimeline(tls[i])
	}
	return mr, tls, nil
}
