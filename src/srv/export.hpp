// Serving-layer telemetry surfaces, shared by every consumer:
//
//   !stats / /statz / periodic reporter  -> serve_stats_json (one-line JSON)
//   GET /healthz                         -> healthz_json (liveness + drain)
//   GET /metrics  (Prometheus pull)      -> serve_exposition(...).prometheus()
//
// The exposition enumerates one obs::Exposition from three sources — the
// process metrics registry (including the per-phase phase_ns histograms),
// the lock-contention registry, and a RouterStats snapshot (model version,
// divergence, routing, aggregated cache). serve_stats_json keeps its
// original key set: it is the compatibility surface for `!stats` JSON
// consumers and is not derived from the exposition.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/export/exposition.hpp"
#include "obs/window.hpp"
#include "srv/router.hpp"
#include "srv/transport.hpp"
#include "store/store.hpp"

namespace agenp::srv {

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
// and transport counters when serving TCP (`server` may be null). With a
// StateStore attached (`--state-dir`) a "store" object rides along:
// snapshot count/age/bytes/entries, WAL growth, and what restore() found.
// With a rolling window attached, a "window" object with 10s/60s/300s
// spans and a "costs" array (phase_costs over the same 60s delta as
// window["60s"]) ride along too — all additions are new keys; the
// original key set is unchanged.
std::string serve_stats_json(const AmsRouter& router, const TcpServer* server,
                             const store::StateStore* state = nullptr,
                             const obs::RollingWindow* window = nullptr);

// `/healthz` body: status ("ok" while serving, "draining" once shutdown
// starts), replica count, model version agreement, total queue depth.
std::string healthz_json(const AmsRouter& router, bool draining);

// The one shared enumerator: process registry + lock profiles + router
// snapshot (srv.up, srv.draining, srv.router.model_version,
// srv.router.versions_agree, srv.router.routed_*, srv.cache.*), plus the
// point-in-time store.* gauges (snapshot age/bytes/entries, wal bytes)
// when a StateStore is attached — the store's own counters are already in
// the process registry as agenp_store_*.
// With a rolling window attached, the exposition additionally carries the
// agenp_window_* families (requests_per_s, cache_hit_rate, latency
// quantiles, labeled by span). Per-phase cost and rate need no family of
// their own: they are rate(agenp_phase_ns_sum[1m]) and _count.
obs::Exposition serve_exposition(const AmsRouter& router, bool draining,
                                 const store::StateStore* state = nullptr,
                                 const obs::RollingWindow* window = nullptr);

// Renders serve_exposition as Prometheus text exposition format 0.0.4.
std::string serve_exposition_prometheus(const AmsRouter& router, bool draining,
                                        const store::StateStore* state = nullptr,
                                        const obs::RollingWindow* window = nullptr);

}  // namespace agenp::srv
