package main

import (
	"math"
	"time"

	"ltnc/transport"
)

// na marks a per-layer metric that does not exist on a workload (UDP
// syscall counters on the Switch, cache counters without a cache). The
// human-readable output prints "n/a"; the one-line JSON result, whose
// values must be numbers, carries 0.
var na = math.NaN()

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// window is the interval of a traced round during which at least one
// fetch was blocked.
func (r *roundResult) window() (from, to time.Duration) {
	from, to = r.fetches[0].start, r.fetches[0].end
	for _, f := range r.fetches[1:] {
		to = max(to, f.end)
	}
	return from, to
}

// overlap returns how much of span [s, e] lies inside [from, to].
func overlap(s, e, from, to time.Duration) time.Duration {
	return max(0, min(e, to)-max(s, from))
}

// liveLayers derives the per-layer metrics that come straight from a
// traced round: the tap's spans at every session boundary and the public
// counters read when the fetches completed.
func liveLayers(r *roundResult) map[string]float64 {
	m := make(map[string]float64)
	natives := float64(r.k * len(r.fetches))
	serving := r.nodes[r.serving()]
	from, to := r.window()

	isFetcher := make(map[transport.Addr]bool)
	for _, n := range r.nodes {
		if n.role == roleFetcher {
			isFetcher[n.s.LocalAddr()] = true
		}
	}

	// session: the pacing signature of the node the fetchers pull from.
	var gaps, pushes []float64
	sendBusy := time.Duration(0)
	last := make(map[transport.Addr]time.Duration)
	servingSpans := serving.tap.recorded()
	for _, sp := range servingSpans {
		if !sp.send {
			continue
		}
		sendBusy += overlap(sp.start, sp.end, from, to)
		if !isFetcher[sp.peer] || sp.kinds[kindData] == 0 {
			continue
		}
		if prev, ok := last[sp.peer]; ok {
			gaps = append(gaps, float64(sp.start-prev)/float64(time.Millisecond))
		}
		last[sp.peer] = sp.start
		pushes = append(pushes, float64(sp.kinds[kindData]))
	}
	m["session.push_gap_ms_p50"] = median(gaps)
	m["session.frames_per_push"] = mean(pushes)

	// session / transport: what each fetcher's receive loop saw.
	var firstData, idle []float64
	var delivered, postComplete, control, dropped float64
	fi := 0
	for i, n := range r.nodes {
		spans := n.tap.recorded()
		for _, sp := range spans {
			if sp.send {
				control += float64(sp.kinds[kindReq] + sp.kinds[kindMeta] + sp.kinds[kindFeedback] + sp.kinds[kindManifest])
			}
		}
		if n.role != roleFetcher {
			continue
		}
		f := r.fetches[fi]
		fi++
		dropped += float64(r.stats[i].ingestDropped)
		blocked := time.Duration(0)
		seen := false
		for _, sp := range spans {
			if sp.send {
				continue
			}
			blocked += overlap(sp.start, sp.end, f.start, f.end)
			data := sp.kinds[kindData]
			if data == 0 {
				continue
			}
			delivered += float64(data)
			if !seen {
				seen = true
				firstData = append(firstData, (sp.end - f.start).Seconds())
			}
			if sp.end > f.end {
				postComplete += float64(data)
			}
		}
		idle = append(idle, ratio(blocked.Seconds(), (f.end-f.start).Seconds()))
	}
	m["session.first_data_s"] = median(firstData)
	m["session.ingest_drop_ratio"] = ratio(dropped, delivered)
	m["session.post_complete_frames"] = ratio(postComplete, float64(len(r.fetches)))
	m["session.control_frames_per_native"] = ratio(control, natives)
	m["transport.recv_idle_share"] = mean(idle)

	var aborted, judged float64
	for _, f := range r.fetches {
		aborted += float64(f.stats.Aborted)
		judged += float64(f.stats.Aborted + f.stats.Received)
	}
	m["session.abort_ratio"] = ratio(aborted, judged)

	m["session.relay_lag_s"] = na
	if r.w.relay {
		in, out := time.Duration(-1), time.Duration(-1)
		for _, sp := range servingSpans {
			if sp.kinds[kindData] == 0 {
				continue
			}
			if !sp.send && in < 0 {
				in = sp.end
			}
			if sp.send && out < 0 {
				out = sp.start
			}
		}
		if in >= 0 && out >= 0 {
			m["session.relay_lag_s"] = (out - in).Seconds()
		}
	}

	// transport: the UDP transport's own syscall counters; the Switch has
	// none.
	m["budget.send_s"] = sendBusy.Seconds()
	if r.w.fabric == "udp" {
		var u transport.UDPStats
		for _, st := range r.stats {
			u.SendSyscalls += st.udp.SendSyscalls
			u.SentFrames += st.udp.SentFrames
			u.RecvSyscalls += st.udp.RecvSyscalls
			u.RecvFrames += st.udp.RecvFrames
		}
		m["transport.send_busy_s"] = sendBusy.Seconds()
		m["transport.send_calls"] = float64(u.SendSyscalls)
		m["transport.frames_per_send_call"] = ratio(float64(u.SentFrames), float64(u.SendSyscalls))
		m["transport.syscalls_per_frame"] = ratio(float64(u.SendSyscalls+u.RecvSyscalls), float64(u.SentFrames+u.RecvFrames))
		m["transport.lost_frames"] = float64(u.SentFrames - u.RecvFrames)
	} else {
		m["transport.send_busy_s"] = na
		m["transport.send_calls"] = na
		m["transport.frames_per_send_call"] = na
		m["transport.syscalls_per_frame"] = na
		m["transport.lost_frames"] = float64(r.swLost)
	}

	// cache: the warm-up and the policy counters of the cache session.
	m["cache.fill_s"] = na
	m["cache.admit_ratio"] = na
	m["cache.served_frames_per_native"] = na
	if r.w.cache {
		cs := r.stats[r.serving()].cache
		m["cache.fill_s"] = r.fill
		m["cache.admit_ratio"] = ratio(float64(cs.Admitted), float64(cs.Admitted+cs.RejectedRedundant+cs.RejectedNoRoom))
		m["cache.served_frames_per_native"] = ratio(float64(cs.ServedFrames), natives)
	}

	// adapt: how well the pushing sessions estimated the injected loss.
	m["adapt.loss_est_abs_err"] = na
	m["adapt.systematic_share"] = na
	if r.w.adaptive {
		var errs []float64
		var sent, systematic float64
		for _, st := range r.stats {
			if st.obj.Sent == 0 {
				continue
			}
			errs = append(errs, math.Abs(st.obj.LossEst-r.w.loss))
			sent += float64(st.obj.Sent)
			systematic += float64(st.obj.Systematic)
		}
		m["adapt.loss_est_abs_err"] = mean(errs)
		m["adapt.systematic_share"] = ratio(systematic, sent)
	}
	return m
}
