package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"lotterybus/internal/obs"
)

// spanStat aggregates every span sharing a name.
type spanStat struct {
	name    string
	count   int
	totalUS int64
	selfUS  int64
}

// spanStats folds spans per name. A span's self time is its duration
// minus the part of its interval that its children cover.
func spanStats(spans []obs.SpanInfo) []spanStat {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.StartUS, s.StartUS + s.DurUS})
		}
	}
	agg := map[string]*spanStat{}
	for _, s := range spans {
		st := agg[s.Name]
		if st == nil {
			st = &spanStat{name: s.Name}
			agg[s.Name] = st
		}
		st.count++
		st.totalUS += s.DurUS
		st.selfUS += s.DurUS - covered(s.StartUS, s.StartUS+s.DurUS, kids[s.ID])
	}
	out := make([]spanStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].name < out[b].name })
	return out
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi). It sorts ivs in place.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	frontier := lo
	for _, iv := range ivs {
		s, e := max(iv[0], frontier), min(iv[1], hi)
		if e > s {
			total += e - s
			frontier = e
		}
	}
	return total
}

// printSpanTable prints each span name of the workload's traced
// operations as a per-layer metric: the mean self time per span, with the
// span count. Section spans (expt.*) read in seconds, the rest in
// milliseconds; the operation span's self time is the time no layer span
// accounts for.
func printSpanTable(w io.Writer, workload string, spans []obs.SpanInfo, opSpan string) {
	for _, st := range spanStats(spans) {
		unit, scale := "ms", 1e3
		if strings.HasPrefix(st.name, "expt.") {
			unit, scale = "s", 1e6
		}
		self := float64(st.selfUS) / float64(st.count) / scale
		fmt.Fprintf(w, "%s: %s_%s %.6g %s (count %d, mean span %.6g %s)\n",
			workload, st.name, unit, self, unit, st.count, float64(st.totalUS)/float64(st.count)/scale, unit)
		if st.name == opSpan && st.totalUS > 0 {
			fmt.Fprintf(w, "%s: bench.unaccounted_ratio %.4f (self time of %s over its duration)\n",
				workload, float64(st.selfUS)/float64(st.totalUS), opSpan)
		}
	}
}
