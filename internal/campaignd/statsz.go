package campaignd

import (
	"html/template"
	"net/http"
	"strings"
)

// statszTmpl renders /v1/statsz for humans: campaign progress, store
// and dispatch counters, the live lease table and the queue depth.
// The JSON form remains the default; browsers get this page via their
// Accept: text/html header.
var statszTmpl = template.Must(template.New("statsz").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>campaignd status</title>
<style>
  body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem; color: #222; }
  h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 1.6rem; }
  table { border-collapse: collapse; margin: .5rem 0; }
  th, td { border: 1px solid #ccc; padding: .25rem .6rem; text-align: right; }
  th { background: #f3f3f3; }
  td:first-child, th:first-child { text-align: left; }
  .bar { background: #e8e8e8; width: 24rem; height: 1rem; }
  .bar > div { background: #4a90d9; height: 100%; }
  .muted { color: #777; }
</style>
</head>
<body>
<h1>campaignd status</h1>
<p>{{.Dispatch.Done}} / {{.Dispatch.Points}} points done</p>
<div class="bar"><div style="width: {{.DonePct}}%"></div></div>

<h2>Dispatch</h2>
<table>
<tr><th>points</th><th>done</th><th>leased</th><th>pending (queue depth)</th>
    <th>live leases</th><th>expired leases</th><th>batch</th><th>mean point</th></tr>
<tr><td>{{.Dispatch.Points}}</td><td>{{.Dispatch.Done}}</td><td>{{.Dispatch.Leased}}</td>
    <td>{{.Dispatch.Pending}}</td><td>{{.Dispatch.Leases}}</td>
    <td>{{.Dispatch.ExpiredLeases}}</td><td>{{.Dispatch.EffectiveBatch}}</td>
    <td>{{if .Dispatch.MeanPointMillis}}{{.Dispatch.MeanPointMillis}} ms{{else}}<span class="muted">n/a</span>{{end}}</td></tr>
</table>
<table>
<tr><th>leases granted</th><th>completed</th></tr>
<tr><td>{{.Dispatch.GrantedLeases}}</td><td>{{.Dispatch.CompletedLeases}}</td></tr>
</table>
<p class="muted">machine-readable form: <a href="/metrics">/metrics</a> (Prometheus text exposition)</p>

<h2>Workers</h2>
{{if .Dispatch.ActiveLeases}}
<table>
<tr><th>lease</th><th>worker</th><th>points</th><th>expires in</th></tr>
{{range .Dispatch.ActiveLeases}}
<tr><td>{{.Lease}}</td><td>{{.Worker}}</td><td>{{.Points}}</td><td>{{.ExpiresInMillis}} ms</td></tr>
{{end}}
</table>
{{else}}<p class="muted">no live leases</p>{{end}}

<h2>Store</h2>
<table>
<tr><th>hits</th><th>misses</th><th>writes</th><th>bad entries</th></tr>
<tr><td>{{.Store.Hits}}</td><td>{{.Store.Misses}}</td><td>{{.Store.Writes}}</td><td>{{.Store.BadEntries}}</td></tr>
</table>

<h2>Synthesis memo</h2>
<table>
<tr><th></th><th>hits</th><th>misses</th></tr>
<tr><td>workload synthesis</td><td>{{.Memo.SynthHits}}</td><td>{{.Memo.SynthMisses}}</td></tr>
<tr><td>prewarm line sets</td><td>{{.Memo.PrewarmHits}}</td><td>{{.Memo.PrewarmMisses}}</td></tr>
</table>
</body>
</html>
`))

// statszPage is the template's view of a Statsz snapshot.
type statszPage struct {
	Statsz
	DonePct int
}

// wantsHTML reports whether the request prefers a human-readable page:
// any Accept header listing text/html (browsers lead with it).
func wantsHTML(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/html")
}

// serveStatszHTML renders the status page.
func (s *Server) serveStatszHTML(w http.ResponseWriter, st Statsz) {
	page := statszPage{Statsz: st}
	if st.Dispatch.Points > 0 {
		page.DonePct = 100 * st.Dispatch.Done / st.Dispatch.Points
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := statszTmpl.Execute(w, page); err != nil {
		// Headers are gone; nothing useful left to do.
		return
	}
}
