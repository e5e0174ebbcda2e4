package obs

import (
	"encoding/json"
	"net/http"
	"runtime"
)

// The live dashboard rides the recorder's HTTP mux (Serve): /dash is a
// small embedded HTML page that polls /dash/data, a JSON snapshot of the
// campaign — metric counters/gauges, stage-latency histograms with
// quantiles, the in-flight spans, and the archx_runtime_* self-profile
// gauges. Everything here is pull-driven: in-flight span tracking and
// runtime sampling switch on at the first dashboard request, so a campaign
// nobody watches pays one atomic load per span and nothing else.

// sampleRuntime refreshes the archx_runtime_* gauges from the Go runtime.
// Called at scrape/poll time.
func (r *Recorder) sampleRuntime() {
	if r == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	reg := r.reg
	reg.Gauge(MetricRuntimeHeap).Set(float64(ms.HeapAlloc))
	reg.Gauge(MetricRuntimeSys).Set(float64(ms.Sys))
	reg.Gauge(MetricRuntimeGoroutines).Set(float64(runtime.NumGoroutine()))
	reg.Gauge(MetricRuntimeGCTotal).Set(float64(ms.NumGC))
	if ms.NumGC > 0 {
		reg.Gauge(MetricRuntimeGCPause).Set(float64(ms.PauseNs[(ms.NumGC+255)%256]))
	}
}

// dashHist is one histogram in the dashboard snapshot.
type dashHist struct {
	Name   string    `json:"name"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	P50    float64   `json:"p50"`
	P90    float64   `json:"p90"`
	P99    float64   `json:"p99"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"` // cumulative, le semantics; last entry is the total
}

// dashLiveSpan is a LiveSpan plus its age at snapshot time.
type dashLiveSpan struct {
	LiveSpan
	AgeNS int64 `json:"age_ns"`
}

// dashSnapshot is the /dash/data payload.
type dashSnapshot struct {
	UptimeNS   int64              `json:"uptime_ns"`
	Metrics    map[string]float64 `json:"metrics"`
	Summary    string             `json:"summary"`
	Histograms []dashHist         `json:"histograms"`
	InFlight   []dashLiveSpan     `json:"in_flight"`
}

// dashData serves the JSON snapshot the dashboard page polls.
func (r *Recorder) dashData(w http.ResponseWriter, _ *http.Request) {
	r.EnableLiveSpans()
	r.sampleRuntime()
	now := r.Clock()
	snap := dashSnapshot{
		UptimeNS: now,
		Metrics:  r.reg.Snapshot(),
		Summary:  r.reg.Summary(),
	}
	for _, name := range r.reg.HistogramNames() {
		h := r.reg.Histogram(name)
		cum, sum, count := h.Snapshot()
		snap.Histograms = append(snap.Histograms, dashHist{
			Name: name, Count: count, Sum: sum,
			P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
			Bounds: h.Bounds(), Counts: cum,
		})
	}
	for _, s := range r.InFlight() {
		snap.InFlight = append(snap.InFlight, dashLiveSpan{LiveSpan: s, AgeNS: now - s.StartNS})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(snap)
}

// dashPage serves the embedded dashboard and switches live tracking on.
func (r *Recorder) dashPage(w http.ResponseWriter, _ *http.Request) {
	r.EnableLiveSpans()
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write([]byte(dashHTML))
}

const dashHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>archx dashboard</title>
<style>
body{font:13px/1.5 ui-monospace,Menlo,Consolas,monospace;margin:1.5em;background:#111;color:#ddd}
h1{font-size:15px}h2{font-size:13px;margin:1.2em 0 .3em;color:#9cf}
table{border-collapse:collapse}td,th{padding:.15em .8em;text-align:right;border-bottom:1px solid #333}
th{color:#888;font-weight:normal}td:first-child,th:first-child{text-align:left}
#summary{color:#9f9}#err{color:#f66}
.bar{display:inline-block;height:9px;background:#49f;vertical-align:middle}
</style>
</head>
<body>
<h1>archx live dashboard</h1>
<div id="summary">connecting…</div><div id="err"></div>
<h2>progress</h2><table id="prog"></table>
<h2>stage latency histograms</h2><table id="hists"></table>
<h2>in-flight spans</h2><table id="spans"></table>
<h2>runtime self-profile</h2><table id="rt"></table>
<script>
const fmtNS=n=>n>=1e9?(n/1e9).toFixed(2)+"s":n>=1e6?(n/1e6).toFixed(1)+"ms":n>=1e3?(n/1e3).toFixed(1)+"µs":n+"ns";
const fmtB=n=>n>=1<<30?(n/(1<<30)).toFixed(2)+"GiB":n>=1<<20?(n/(1<<20)).toFixed(1)+"MiB":n>=1024?(n/1024).toFixed(1)+"KiB":n+"B";
const fmtS=s=>s>=1?s.toFixed(2)+"s":s>=1e-3?(s*1e3).toFixed(1)+"ms":(s*1e6).toFixed(0)+"µs";
function rows(el,head,body){el.innerHTML="<tr>"+head.map(h=>"<th>"+h+"</th>").join("")+"</tr>"+
  body.map(r=>"<tr>"+r.map(c=>"<td>"+c+"</td>").join("")+"</tr>").join("");}
const PROG=[["archx_explorer_iters_total","iterations"],["archx_evaluations_total","evaluations"],
 ["archx_probes_total","probes"],["archx_budget_spent_sims","budget (sims)"],["archx_hypervolume","hypervolume"],
 ["archx_sims_in_flight","sims in flight"],["archx_cache_hits_total","cache hits"],["archx_cache_misses_total","cache misses"],
 ["archx_retries_total","retries"],["archx_campaigns_done_total","grid cells done"]];
const RT=[["archx_runtime_heap_alloc_bytes","heap",fmtB],["archx_runtime_sys_bytes","sys",fmtB],
 ["archx_runtime_goroutines","goroutines",v=>v],["archx_runtime_gc_pause_last_ns","last GC pause",fmtNS],
 ["archx_runtime_gc_cycles_total","GC cycles",v=>v]];
async function tick(){
 try{
  const d=await (await fetch("dash/data")).json();
  document.getElementById("err").textContent="";
  document.getElementById("summary").textContent="up "+fmtNS(d.uptime_ns)+" — "+d.summary;
  const m=d.metrics||{};
  rows(document.getElementById("prog"),["metric","value"],
    PROG.filter(([k])=>k in m).map(([k,l])=>[l,+m[k].toFixed(4)]));
  rows(document.getElementById("hists"),["stage","count","mean","p50","p90","p99"],
    (d.histograms||[]).map(h=>[h.name.replace(/^archx_|_seconds$/g,""),h.count,
      fmtS(h.count?h.sum/h.count:0),fmtS(h.p50),fmtS(h.p90),fmtS(h.p99)]));
  rows(document.getElementById("spans"),["kind","name","workload","worker","age"],
    (d.in_flight||[]).map(s=>[s.kind,s.name||"",s.workload||"",s.worker||"",
      fmtNS(s.age_ns)+' <span class="bar" style="width:'+Math.min(120,s.age_ns/1e7)+'px"></span>']));
  rows(document.getElementById("rt"),["gauge","value"],
    RT.filter(([k])=>k in m).map(([k,l,f])=>[l,f(m[k])]));
 }catch(e){document.getElementById("err").textContent="poll failed: "+e;}
}
tick();setInterval(tick,1000);
</script>
</body>
</html>
`
