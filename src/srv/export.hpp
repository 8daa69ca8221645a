// Serving-layer telemetry surfaces, shared by every consumer:
//
//   !stats / /statz / periodic reporter  -> serve_stats_json (one-line JSON)
//   GET /healthz                         -> healthz_json (liveness + drain)
//   GET /metrics  (Prometheus pull)      -> serve_exposition(...).prometheus()
//   obs::RollingWindow (/statz "window", agenp_window_*) -> serve_metrics
//
// Each serving event has one counter, kept by the object it happens in:
// DecisionService (ServiceStats), its DecisionCache (CacheStats) and
// grounding memo (MemoStats), the AmsRouter, the TcpServer
// (TransportStats), the AuditLog (AuditStats) and the StateStore
// (StoreStatus). serve_metrics reads them all, with the process registry
// (library counters and the per-phase phase_ns histograms), into one
// MetricsSnapshot; /metrics renders it and the rolling window ticks over
// it, so both report the numbers /statz reads from the same structs.
// serve_stats_json keeps its original key set: it is the compatibility
// surface for `!stats` JSON consumers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/export/exposition.hpp"
#include "obs/window.hpp"
#include "srv/audit.hpp"
#include "srv/router.hpp"
#include "srv/transport.hpp"
#include "store/store.hpp"

namespace agenp::srv {

// The objects that keep the serving counts. Only the router is required;
// a null pointer means that part is off (no TCP listener, no audit log,
// no state dir).
struct ServeSources {
    const AmsRouter& router;
    const TcpServer* tcp = nullptr;
    const AuditLog* audit = nullptr;
    const store::StateStore* state = nullptr;
};

// The one enumeration of every serving number, read when called: the
// process registry's instruments plus, under their registry-style names,
//   srv.{requests,decisions,permitted,denied,overloaded,expired,errors,
//        traces_captured,cache_hits,cache_misses}   ServiceStats, CacheStats
//   srv.cache.*, memo.*                             cache and memo footprint
//   srv.router.{routed_affinity,routed_fallback,versions_agree}
//   srv.replica.{model_version,queue_depth}{replica}
//   srv.conn.*                                      TransportStats (tcp)
//   srv.audit.{records,sampled_out,rotations,write_errors}   (audit)
//   store.*                                         StoreStatus (state)
// Hits and misses count cache lookups, as /statz "cache" does.
obs::MetricsSnapshot serve_metrics(const ServeSources& sources);

// Windowed SLO stats for one span, derived from the rolling window's
// srv.requests / srv.cache_hits / srv.cache_misses deltas and the
// phase_ns{phase="srv.request"} histogram delta, read in microseconds.
struct WindowedServeStats {
    double seconds = 0.0;
    bool complete = false;  // false while the window is still warming up
    double requests_per_s = 0.0;
    double hit_rate = 0.0;  // 0 when the window saw no cache traffic
    double p50_us = 0.0;
    double p95_us = 0.0;
    double p99_us = 0.0;
};
WindowedServeStats windowed_serve_stats(const obs::RollingWindow& window,
                                        std::chrono::seconds span);
// {"seconds":..,"complete":..,"req_s":..,"hit_rate":..,"p50_us":..,...}
std::string windowed_serve_stats_json(const WindowedServeStats& stats);

// One row of `/statz` costs: what a phase cost over a window, read from
// its phase_ns histogram delta. Every number is 0 for a phase the window
// did not see, and hz and us_per_s are 0 for a window of no length.
struct PhaseCost {
    std::string check;  // the phase name
    std::uint64_t calls = 0;
    double mean_us = 0.0;   // time per call
    double hz = 0.0;        // calls per second
    double us_per_s = 0.0;  // time per second: the phase's share of wall time
};
// One row per obs::PhaseId, sorted by us_per_s descending, then by name.
std::vector<PhaseCost> phase_costs(const obs::WindowDelta& delta);

// One-line JSON for `!stats`, `/statz`, and the periodic reporter: summed
// service counters, cache, locks, router routing detail, per-replica rows,
// and transport counters when serving TCP. With a StateStore attached
// (`--state-dir`) a "store" object rides along: snapshot
// count/age/bytes/policies, and whether restore() found a snapshot. With a
// rolling window attached, a "window" object with 10s/60s/300s spans and
// a "costs" array (phase_costs over the same 60s delta as window["60s"])
// ride along too — all additions are new keys; the original key set is
// unchanged.
std::string serve_stats_json(const ServeSources& sources,
                             const obs::RollingWindow* window = nullptr);

// `/healthz` body: status ("ok" while serving, "draining" once shutdown
// starts), replica count, model version agreement, total queue depth.
std::string healthz_json(const AmsRouter& router, bool draining);

// serve_metrics, the lock profiles, srv.up and srv.draining, and — with
// a rolling window attached — the agenp_window_* families
// (requests_per_s, cache_hit_rate, latency quantiles, labeled by span).
// Per-phase cost and rate need no family of their own: they are
// rate(agenp_phase_ns_sum[1m]) and _count.
obs::Exposition serve_exposition(const ServeSources& sources, bool draining,
                                 const obs::RollingWindow* window = nullptr);

}  // namespace agenp::srv
