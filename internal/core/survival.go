package core

import (
	"fmt"

	"repro/internal/failures"
	"repro/internal/index"
	"repro/internal/stats"
	"repro/internal/system"
)

// GPUSurvivalResult is the Kaplan-Meier survival analysis of GPU cards:
// the time from the log-window start until a card's first failure, with
// cards that never failed right-censored at the window end. This extends
// the paper with the card-lifetime view of Ostrouchov et al. (its
// reference [11]) computed from the same log schema.
type GPUSurvivalResult struct {
	// Cards is the fleet GPU count; Failed of them saw at least one
	// failure inside the window.
	Cards  int
	Failed int
	// Curve is the Kaplan-Meier survival curve over hours since window
	// start.
	Curve []stats.SurvivalPoint
	// MedianHours is the time at which half the cards are expected to
	// have failed; ok=false (negative value) when censoring keeps the
	// curve above 0.5 — the usual case on the more reliable generation.
	MedianHours   float64
	MedianReached bool
	// SurvivalAtOneYear is S(8760 h): the probability a card survives its
	// first year of the window without a failure.
	SurvivalAtOneYear float64
	// Hazard is the Nelson-Aalen cumulative-hazard curve; near-linear
	// growth means a constant card failure rate (no burn-in or aging
	// visible at fleet scale).
	Hazard []stats.HazardPoint
}

// GPUSurvival computes the per-card survival analysis of a log.
func GPUSurvival(ix *index.View) (*GPUSurvivalResult, error) {
	machine, err := system.ForSystem(ix.System())
	if err != nil {
		return nil, err
	}
	start, end, ok := ix.Window()
	if !ok {
		return nil, ErrEmptyLog
	}
	horizon := end.Sub(start).Hours()
	slots := failures.GPUsPerNode(ix.System())

	// First failure time per card, keyed by node index and slot.
	type cardKey struct {
		node int
		slot int
	}
	firstFailure := make(map[cardKey]float64)
	recs := ix.Records()
	for i := range recs {
		r := &recs[i]
		if len(r.GPUs) == 0 || r.Node == "" {
			continue
		}
		idx, ok := system.ParseNodeIndex(r.Node)
		if !ok || idx >= machine.Nodes {
			return nil, fmt.Errorf("core: node %q outside the %v fleet", r.Node, ix.System())
		}
		t := r.Time.Sub(start).Hours()
		for _, slot := range r.GPUs {
			key := cardKey{node: idx, slot: slot}
			if prev, seen := firstFailure[key]; !seen || t < prev {
				firstFailure[key] = t
			}
		}
	}
	if len(firstFailure) == 0 {
		return nil, ErrEmptyLog
	}

	totalCards := machine.Nodes * slots
	obs := make([]stats.Observation, 0, totalCards)
	for _, t := range firstFailure {
		obs = append(obs, stats.Observation{Duration: t})
	}
	for i := len(firstFailure); i < totalCards; i++ {
		obs = append(obs, stats.Observation{Duration: horizon, Censored: true})
	}
	curve, err := stats.KaplanMeier(obs)
	if err != nil {
		return nil, err
	}
	res := &GPUSurvivalResult{
		Cards:  totalCards,
		Failed: len(firstFailure),
		Curve:  curve,
	}
	if med, ok := stats.MedianSurvivalTime(curve); ok {
		res.MedianHours = med
		res.MedianReached = true
	}
	res.SurvivalAtOneYear = survivalAt(curve, 8760)
	if hazard, err := stats.NelsonAalen(obs); err == nil {
		res.Hazard = hazard
	}
	return res, nil
}

// survivalAt evaluates a step survival curve at time t.
func survivalAt(curve []stats.SurvivalPoint, t float64) float64 {
	s := 1.0
	for _, pt := range curve {
		if pt.Time > t {
			break
		}
		s = pt.Survival
	}
	return s
}
