package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed step of a traced pass, as seen from this benchmark:
// the calls it makes into the exp runner and the artifact renderers.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"start_ns"` // since the process started measuring
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the process writes them out.
type spanLog struct {
	epoch time.Time
	spans []span
}

func (l *spanLog) add(parent int, name, detail string, start, end time.Time) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name, Detail: detail,
		Start: start.Sub(l.epoch).Nanoseconds(), End: end.Sub(l.epoch).Nanoseconds(),
	})
	return id
}

// addPass records a pass run with completion marks: pass holds exp.run
// (each exp.trial, then exp.reduce), trace.render and bench.digest. A
// trial's span ends at its completion mark and lasts its Meta.Wall, the
// time inside ExecuteIn; the gaps between trial spans are runner and
// streaming-reducer work.
func (l *spanLog) addPass(p *pass, detail string) {
	root := l.add(0, "pass", detail, p.start, p.end)
	run := l.add(root, "exp.run", "", p.start, p.runEnd)
	if len(p.done) == len(p.trials) && len(p.done) > 0 {
		for i, t := range p.trials {
			end := p.done[i]
			l.add(run, "exp.trial", t.Meta.Experiment+"/"+t.Spec.ID, end.Add(-t.Meta.Wall), end)
		}
		// RunExperiments stamps Meta.Experiment and reduces after the
		// last trial; RunSpecs does neither.
		if p.trials[0].Meta.Experiment != "" {
			l.add(run, "exp.reduce", "", p.done[len(p.done)-1], p.runEnd)
		}
	}
	l.add(root, "trace.render", "", p.runEnd, p.renderEnd)
	l.add(root, "bench.digest", "", p.renderEnd, p.end)
}

func (l *spanLog) write(path string) error {
	data, err := json.MarshalIndent(l.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
