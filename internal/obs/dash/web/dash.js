// Fleet dashboard client: polls state.json / sessions.json and follows
// the SSE event stream. Stdlib server, no framework client — fetch,
// EventSource and hand-rolled SVG sparklines.
"use strict";

const $ = (id) => document.getElementById(id);
const SERIES = 8; // categorical slots defined in index.html CSS

function chainColor(i) {
  return i < SERIES ? `var(--series-${i + 1})` : "var(--series-other)";
}

function fmt(v, digits = 0) {
  if (v === undefined || v === null || Number.isNaN(v)) return "–";
  if (Math.abs(v) >= 1e6) return (v / 1e6).toFixed(1) + "M";
  if (Math.abs(v) >= 1e4) return (v / 1e3).toFixed(1) + "k";
  return v.toFixed(digits);
}

function fmtDur(ms) {
  if (ms < 1000) return ms + "ms";
  if (ms < 60000) return (ms / 1000).toFixed(1) + "s";
  return Math.floor(ms / 60000) + "m" + Math.round((ms % 60000) / 1000) + "s";
}

function esc(s) {
  return String(s).replace(/[&<>"]/g, (c) =>
    ({ "&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;" }[c]));
}

// ---- fleet tiles -----------------------------------------------------

function renderTiles(doc) {
  const g = doc.gauges || {}, c = doc.counters || {};
  const hit = g.serve_cache_hit_ratio;
  const tiles = [
    [String(doc.active.length), "active solves"],
    [`${fmt(g.serve_workers_busy)} / ${fmt(g.serve_workers)}`, "workers busy"],
    [`${fmt(g.serve_queue_depth)} / ${fmt(g.serve_queue_capacity)}`, "queue depth"],
    [hit === undefined ? "–" : (100 * hit).toFixed(1) + "%", "cache hit ratio"],
    [fmt(c.serve_requests_total), "requests"],
    [fmt(c.serve_solves_total), "solves"],
    [fmt(c.serve_queue_rejected_total), "rejected (429)"],
    [g.serve_uptime_seconds === undefined ? "–" : fmtDur(1000 * g.serve_uptime_seconds), "uptime"],
  ];
  $("tiles").innerHTML = tiles
    .map(([v, l]) => `<div class="tile"><div class="v">${esc(v)}</div><div class="l">${esc(l)}</div></div>`)
    .join("");
}

// ---- sparklines ------------------------------------------------------

// One sparkline per solve, one 2px line per chain (best CV over chain
// iterations, log-y so early convergence doesn't flatten the tail).
function sparkline(series) {
  const W = 352, H = 84, PAD = 4;
  let maxIter = 1, lo = Infinity, hi = -Infinity;
  for (const pts of series) {
    for (const p of pts) {
      maxIter = Math.max(maxIter, p.iter);
      const v = Math.max(p.best_cv, 1e-6);
      lo = Math.min(lo, v); hi = Math.max(hi, v);
    }
  }
  if (!isFinite(lo)) return `<svg class="spark" viewBox="0 0 ${W} ${H}"></svg>`;
  if (hi / lo < 1.05) { hi *= 1.1; lo /= 1.1; }
  const lx = (it) => PAD + (W - 2 * PAD) * (it / maxIter);
  const ly = (v) => {
    const t = (Math.log(Math.max(v, 1e-6)) - Math.log(lo)) / (Math.log(hi) - Math.log(lo));
    return H - PAD - (H - 2 * PAD) * t;
  };
  let out = `<svg class="spark" viewBox="0 0 ${W} ${H}" role="img" aria-label="per-chain best CV trajectory">`;
  // Recessive grid: three horizontal rules.
  for (const f of [0.25, 0.5, 0.75]) {
    const y = PAD + (H - 2 * PAD) * f;
    out += `<line x1="${PAD}" y1="${y}" x2="${W - PAD}" y2="${y}" stroke="var(--grid)" stroke-width="1"/>`;
  }
  series.forEach((pts, i) => {
    if (!pts.length) return;
    const d = pts.map((p) => `${lx(p.iter).toFixed(1)},${ly(p.best_cv).toFixed(1)}`).join(" ");
    out += `<polyline points="${d}" fill="none" stroke="${chainColor(i)}" ` +
      `stroke-width="2" stroke-linejoin="round" stroke-linecap="round">` +
      `<title>chain ${i}</title></polyline>`;
  });
  return out + "</svg>";
}

function renderActive(doc) {
  const el = $("active");
  if (!doc.active.length) { el.innerHTML = `<span class="empty">none</span>`; return; }
  el.innerHTML = doc.active.map((a) => {
    const legend = a.series.length > 1
      ? `<div class="legend">` + a.series.map((_, i) =>
          `<span><span class="chip" style="background:${chainColor(i)}"></span>chain ${i}</span>`
        ).join("") + `</div>`
      : "";
    return `<div class="card">
      <div class="head"><span class="model">${esc(a.model || "inline graph")}</span>
        <span class="id">${esc(a.id)}</span></div>
      <div class="nums">
        ${fmtDur(a.elapsed_ms)} elapsed · ${a.chains} chain${a.chains > 1 ? "s" : ""}
        · ${a.exchanges} adoptions · best CV ${a.best_cv ? a.best_cv.toFixed(4) : "–"}
      </div>
      ${sparkline(a.series)}${legend}
    </div>`;
  }).join("");
}

// ---- sessions --------------------------------------------------------

function renderSessions(doc) {
  const ss = doc.sessions || [];
  if (!ss.length) { $("sessions").innerHTML = `<span class="empty">none yet</span>`; return; }
  const rows = ss.map((s) => `<tr>
    <td>${esc(s.model || "inline graph")}</td>
    <td class="id">${esc(s.id)}</td>
    <td>${s.chains}</td>
    <td>${fmtDur(s.dur_ms)}</td>
    <td>${s.final_cv ? s.final_cv.toFixed(4) : "–"}</td>
    <td>${s.rounds || "–"}</td>
    ${s.error
      ? `<td class="err">✕ ${esc(s.error)}</td>`
      : `<td class="ok digest">✓ ${esc((s.digest || "").slice(0, 16))}</td>`}
  </tr>`).join("");
  $("sessions").innerHTML = `<table>
    <thead><tr><th>model</th><th>solve</th><th>chains</th><th>duration</th>
    <th>final CV</th><th>rounds</th><th>outcome</th></tr></thead>
    <tbody>${rows}</tbody></table>`;
}

// ---- event log -------------------------------------------------------

const MAX_EVENTS = 100;
function addEvent(ev) {
  const li = document.createElement("li");
  const t = new Date(ev.time_ms).toLocaleTimeString();
  li.innerHTML = `<span class="t">${esc(t)}</span><span class="ty">${esc(ev.type)}</span> ` +
    `${esc(ev.model || "")} <span class="t">${esc(ev.solve || "")}</span> ${esc(ev.detail || "")}`;
  const ul = $("events");
  ul.insertBefore(li, ul.firstChild);
  while (ul.children.length > MAX_EVENTS) ul.removeChild(ul.lastChild);
}

// ---- wiring ----------------------------------------------------------

async function refreshState() {
  try {
    const doc = await (await fetch("/debug/dash/state.json")).json();
    renderTiles(doc);
    renderActive(doc);
  } catch { /* transient; next poll retries */ }
}

async function refreshSessions() {
  try {
    renderSessions(await (await fetch("/debug/dash/sessions.json")).json());
  } catch { /* transient */ }
}

const es = new EventSource("/debug/dash/events");
es.onopen = () => { const c = $("conn"); c.textContent = "live"; c.className = "ok"; };
es.onerror = () => { const c = $("conn"); c.textContent = "reconnecting…"; c.className = "bad"; };
for (const t of ["request_admitted", "request_dedup_joined", "request_cached",
                 "request_rejected", "solve_started", "solve_finished",
                 "solve_failed", "chain_exchange", "request_store_hit"]) {
  es.addEventListener(t, (e) => {
    addEvent(JSON.parse(e.data));
    if (t === "solve_finished" || t === "solve_failed") refreshSessions();
    if (t === "solve_started" || t === "solve_finished" || t === "solve_failed") refreshState();
  });
}

refreshState();
refreshSessions();
setInterval(refreshState, 2000);
setInterval(refreshSessions, 10000);
