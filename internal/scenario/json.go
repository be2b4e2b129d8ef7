package scenario

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/graph"
	"repro/internal/te"
)

// JSON scenario files let operators describe a topology, a traffic
// matrix and a failure timeline declaratively and replay them through
// the controller (testdata/sample.json is a worked example, replayed by
// TestSampleReportMatchesGolden). Node references are by name.
//
//	{
//	  "nodes": ["SEA", "DEN", "NYC"],
//	  "links": [
//	    {"from": "SEA", "to": "DEN", "weight": 1},
//	    {"from": "DEN", "to": "NYC", "weight": 1}
//	  ],
//	  "rounds": 6,
//	  "baseline_snr_db": 16,
//	  "demands": [{"from": "SEA", "to": "NYC", "gbps": 120}],
//	  "events": [
//	    {"round": 2, "from": "SEA", "to": "DEN", "snr_db": 4.2},
//	    {"round": 4, "from": "SEA", "to": "DEN", "snr_db": 16}
//	  ]
//	}
//
// Links are directed; list both directions for bidirectional
// adjacencies (or set "bidir": true).
type jsonScenario struct {
	Nodes []string `json:"nodes"`
	Links []struct {
		From   string  `json:"from"`
		To     string  `json:"to"`
		Weight float64 `json:"weight"`
		Bidir  bool    `json:"bidir"`
	} `json:"links"`
	Rounds      int     `json:"rounds"`
	BaselineSNR float64 `json:"baseline_snr_db"`
	Demands     []struct {
		From     string  `json:"from"`
		To       string  `json:"to"`
		Gbps     float64 `json:"gbps"`
		Priority int     `json:"priority"`
	} `json:"demands"`
	Events []struct {
		Round int     `json:"round"`
		From  string  `json:"from"`
		To    string  `json:"to"`
		SNRdB float64 `json:"snr_db"`
	} `json:"events"`
}

// LoadJSON parses a JSON scenario into a topology and a Script.
func LoadJSON(r io.Reader) (*graph.Graph, Script, error) {
	var js jsonScenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&js); err != nil {
		return nil, Script{}, fmt.Errorf("scenario: parsing JSON: %w", err)
	}
	if len(js.Nodes) == 0 {
		return nil, Script{}, fmt.Errorf("scenario: no nodes")
	}
	g := graph.New()
	byName := make(map[string]graph.NodeID, len(js.Nodes))
	for _, n := range js.Nodes {
		if _, dup := byName[n]; dup {
			return nil, Script{}, fmt.Errorf("scenario: duplicate node %q", n)
		}
		byName[n] = g.AddNode(n)
	}
	lookup := func(name string) (graph.NodeID, error) {
		id, ok := byName[name]
		if !ok {
			return graph.NoNode, fmt.Errorf("scenario: unknown node %q", name)
		}
		return id, nil
	}
	// edgeOf maps a directed pair to its edge for event resolution.
	edgeOf := map[[2]graph.NodeID]graph.EdgeID{}
	addLink := func(from, to string, w float64) error {
		u, err := lookup(from)
		if err != nil {
			return err
		}
		v, err := lookup(to)
		if err != nil {
			return err
		}
		if w <= 0 {
			w = 1
		}
		if _, dup := edgeOf[[2]graph.NodeID{u, v}]; dup {
			return fmt.Errorf("scenario: duplicate link %s->%s", from, to)
		}
		edgeOf[[2]graph.NodeID{u, v}] = g.AddEdge(graph.Edge{From: u, To: v, Weight: w})
		return nil
	}
	for _, l := range js.Links {
		if err := addLink(l.From, l.To, l.Weight); err != nil {
			return nil, Script{}, err
		}
		if l.Bidir {
			if err := addLink(l.To, l.From, l.Weight); err != nil {
				return nil, Script{}, err
			}
		}
	}

	s := Script{Rounds: js.Rounds, BaselinedB: js.BaselineSNR}
	for _, d := range js.Demands {
		u, err := lookup(d.From)
		if err != nil {
			return nil, Script{}, err
		}
		v, err := lookup(d.To)
		if err != nil {
			return nil, Script{}, err
		}
		s.Demands = append(s.Demands, te.Demand{Src: u, Dst: v, Volume: d.Gbps, Priority: d.Priority})
	}
	for _, ev := range js.Events {
		u, err := lookup(ev.From)
		if err != nil {
			return nil, Script{}, err
		}
		v, err := lookup(ev.To)
		if err != nil {
			return nil, Script{}, err
		}
		id, ok := edgeOf[[2]graph.NodeID{u, v}]
		if !ok {
			return nil, Script{}, fmt.Errorf("scenario: event references missing link %s->%s", ev.From, ev.To)
		}
		s.Events = append(s.Events, Event{Round: ev.Round, Link: id, SNRdB: ev.SNRdB})
	}
	if err := s.Validate(g); err != nil {
		return nil, Script{}, err
	}
	return g, s, nil
}
