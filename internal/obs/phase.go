package obs

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/route"
)

// Span is one hop of a routing trajectory: the message sits on vertex V,
// whose model weight is W and whose objective value is Score — exactly one
// point of the paper's Figure 1. A sampled request's local_route PhaseSpan
// carries its walk as Hops, in step order.
type Span struct {
	Step  int     `json:"step"`
	V     int     `json:"v"`
	W     float64 `json:"w"`
	Score float64 `json:"score"`
}

// spanJSON is the wire form of Span: Score is typed any because the standard
// objective scores the target vertex +Inf, which bare JSON numbers cannot
// represent — non-finite scores travel as the strings "+Inf"/"-Inf"/"NaN".
type spanJSON struct {
	Step  int     `json:"step"`
	V     int     `json:"v"`
	W     float64 `json:"w"`
	Score any     `json:"score"`
}

// MarshalJSON encodes the span, spelling a non-finite Score as a string.
func (s Span) MarshalJSON() ([]byte, error) {
	j := spanJSON{Step: s.Step, V: s.V, W: s.W}
	if math.IsInf(s.Score, 0) || math.IsNaN(s.Score) {
		j.Score = formatPromValue(s.Score)
	} else {
		j.Score = s.Score
	}
	return json.Marshal(j)
}

// UnmarshalJSON accepts both numeric and string-spelled scores.
func (s *Span) UnmarshalJSON(b []byte) error {
	var j spanJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	s.Step, s.V, s.W = j.Step, j.V, j.W
	switch v := j.Score.(type) {
	case float64:
		s.Score = v
	case string:
		switch v {
		case "+Inf":
			s.Score = math.Inf(1)
		case "-Inf":
			s.Score = math.Inf(-1)
		case "NaN":
			s.Score = math.NaN()
		default:
			return fmt.Errorf("obs: unknown span score %q", v)
		}
	case nil:
	default:
		return fmt.Errorf("obs: span score has type %T", v)
	}
	return nil
}

// MaxHops bounds the hops one span carries, so a runaway walk cannot grow a
// span without bound; HopCollector keeps the first MaxHops and counts the
// rest.
const MaxHops = 4096

// HopCollector gathers the hops of one episode replay (route.Observe, or the
// engine's replay to an EpisodeConfig.Observer). One collector serves one
// episode on one goroutine.
type HopCollector struct {
	Hops []Span
	// Cut counts the hops dropped past MaxHops.
	Cut int
}

// Move appends one replayed event as a hop (route.Observer).
func (c *HopCollector) Move(ev route.MoveEvent) {
	if len(c.Hops) >= MaxHops {
		c.Cut++
		return
	}
	c.Hops = append(c.Hops, Span{Step: ev.Step, V: ev.V, W: ev.W, Score: ev.Score})
}

// Phases is the two-phase decomposition of a greedy trajectory (Figure 1 of
// the paper): node weights first grow doubly-exponentially into the network
// core (the weight phase), then the objective grows doubly-exponentially
// toward the target (the objective phase). The boundary between the phases
// is the maximum-weight hop — the core vertex the walk peaks at.
type Phases struct {
	// Hops is the number of transmissions, len(spans)-1.
	Hops int
	// Boundary is the index of the first span attaining the maximum weight
	// (the phase boundary; -1 for an empty trace).
	Boundary int
	// PeakW is the maximum weight along the trajectory.
	PeakW float64
	// WeightHops and ObjectiveHops are the lengths of the two phases:
	// hops 1..Boundary climb the weight hierarchy, hops Boundary+1..Hops
	// climb the objective. They sum to Hops.
	WeightHops    int
	ObjectiveHops int
	// TwoPhase reports the Figure-1 shape: the trajectory has an interior
	// weight peak (both endpoints strictly below it), so a non-empty weight
	// phase is followed by a non-empty objective phase.
	TwoPhase bool
}

// Analyze splits a trajectory into the paper's two phases at its
// maximum-weight hop.
func Analyze(spans []Span) Phases {
	if len(spans) == 0 {
		return Phases{Boundary: -1}
	}
	p := Phases{Hops: len(spans) - 1, PeakW: spans[0].W}
	for i, s := range spans {
		if s.W > p.PeakW {
			p.PeakW, p.Boundary = s.W, i
		}
	}
	p.WeightHops = p.Boundary
	p.ObjectiveHops = p.Hops - p.Boundary
	p.TwoPhase = p.Boundary > 0 && p.Boundary < len(spans)-1 &&
		spans[0].W < p.PeakW && spans[len(spans)-1].W < p.PeakW
	return p
}
