package main

import (
	"strconv"
	"strings"
)

// promSeries is one scrape of /metrics: series text ("name" or
// `name{label="v"}`, exactly as exposed) → value.
type promSeries map[string]float64

// parseProm reads the Prometheus text exposition format, ignoring comments
// and lines it cannot read (a timestamp after the value is not expected from
// critloadd and is not handled).
func parseProm(text string) promSeries {
	out := promSeries{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out
}

// delta is after − before for every series of after; a series absent from
// before counts from 0, as a counter registered on first use does.
func (after promSeries) delta(before promSeries) promSeries {
	out := make(promSeries, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
