#include "srv/export.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "obs/lockprof.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"

namespace agenp::srv {

namespace {

// The three spans every windowed surface reports.
constexpr std::chrono::seconds kWindowSpans[] = {std::chrono::seconds(10),
                                                 std::chrono::seconds(60),
                                                 std::chrono::seconds(300)};
// The span `/statz` costs cover.
constexpr std::chrono::seconds kCostSpan{60};

// The registry key of a phase's histogram.
std::string phase_key(obs::PhaseId id) {
    return obs::metric_key("phase_ns", {{"phase", std::string(obs::phase_name(id))}});
}

const char* span_name(std::chrono::seconds span) {
    switch (span.count()) {
        case 10: return "10s";
        case 60: return "60s";
        case 300: return "300s";
        default: return "?";
    }
}

// Seconds since the store last wrote a snapshot; -1 before the first one.
std::int64_t snapshot_age_s(const store::StoreStatus& status) {
    if (status.last_snapshot_unix_ms == 0) return -1;
    auto now_ms = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    if (now_ms < status.last_snapshot_unix_ms) return 0;
    return static_cast<std::int64_t>((now_ms - status.last_snapshot_unix_ms) / 1000);
}

std::string store_status_json(const store::StoreStatus& status) {
    std::string out = "{";
    out += "\"snapshots\":" + std::to_string(status.snapshots_written);
    out += ",\"snapshot_failures\":" + std::to_string(status.snapshot_failures);
    out += ",\"snapshot_age_s\":" + std::to_string(snapshot_age_s(status));
    out += ",\"snapshot_bytes\":" + std::to_string(status.snapshot_bytes);
    out += ",\"snapshot_policies\":" + std::to_string(status.snapshot_policies);
    out += std::string(",\"restored\":") + (status.restored ? "true" : "false");
    out += "}";
    return out;
}

// Windowed SLO stats over one delta (see windowed_serve_stats).
WindowedServeStats serve_stats_over(const obs::WindowDelta& delta) {
    static const std::string kRequestKey = phase_key(obs::PhaseId::SrvRequest);
    WindowedServeStats stats;
    stats.seconds = delta.seconds;
    stats.complete = delta.complete;
    stats.requests_per_s = delta.rate("srv.requests");
    std::uint64_t hits = delta.counter("srv.cache_hits");
    std::uint64_t misses = delta.counter("srv.cache_misses");
    if (hits + misses > 0) {
        stats.hit_rate = static_cast<double>(hits) / static_cast<double>(hits + misses);
    }
    if (const obs::Histogram::Snapshot* latency = delta.histogram(kRequestKey);
        latency != nullptr) {
        stats.p50_us = latency->quantile(0.5) / 1000.0;
        stats.p95_us = latency->quantile(0.95) / 1000.0;
        stats.p99_us = latency->quantile(0.99) / 1000.0;
    }
    return stats;
}

}  // namespace

WindowedServeStats windowed_serve_stats(const obs::RollingWindow& window,
                                        std::chrono::seconds span) {
    return serve_stats_over(window.window(span));
}

std::string windowed_serve_stats_json(const WindowedServeStats& stats) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"seconds\":%.1f,\"complete\":%s,\"req_s\":%.2f,\"hit_rate\":%.3f,"
                  "\"p50_us\":%.1f,\"p95_us\":%.1f,\"p99_us\":%.1f}",
                  stats.seconds, stats.complete ? "true" : "false", stats.requests_per_s,
                  stats.hit_rate, stats.p50_us, stats.p95_us, stats.p99_us);
    return buf;
}

std::vector<PhaseCost> phase_costs(const obs::WindowDelta& delta) {
    std::vector<PhaseCost> costs;
    costs.reserve(obs::kPhaseCount);
    for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
        auto id = static_cast<obs::PhaseId>(i);
        PhaseCost& cost = costs.emplace_back();
        cost.check = std::string(obs::phase_name(id));
        const obs::Histogram::Snapshot* ns = delta.histogram(phase_key(id));
        if (ns == nullptr) continue;
        double sum_us = static_cast<double>(ns->sum) / 1000.0;
        cost.calls = ns->count;
        cost.mean_us = sum_us / static_cast<double>(ns->count);
        if (delta.seconds > 0.0) {
            cost.hz = static_cast<double>(ns->count) / delta.seconds;
            cost.us_per_s = sum_us / delta.seconds;
        }
    }
    std::sort(costs.begin(), costs.end(), [](const PhaseCost& a, const PhaseCost& b) {
        if (a.us_per_s != b.us_per_s) return a.us_per_s > b.us_per_s;
        return a.check < b.check;
    });
    return costs;
}

std::string serve_stats_json(const ServeSources& sources, const obs::RollingWindow* window) {
    RouterStats rs = sources.router.snapshot_stats();
    const ServiceStats& stats = rs.total;
    std::string out = "{";
    out += "\"submitted\":" + std::to_string(stats.submitted);
    out += ",\"completed\":" + std::to_string(stats.completed);
    out += ",\"permitted\":" + std::to_string(stats.permitted);
    out += ",\"denied\":" + std::to_string(stats.denied);
    out += ",\"overloaded\":" + std::to_string(stats.rejected_overload);
    out += ",\"expired\":" + std::to_string(stats.expired);
    out += ",\"errors\":" + std::to_string(stats.errors);
    out += ",\"queue_depth\":" + std::to_string(stats.queue_depth);
    out += ",\"traces_captured\":" + std::to_string(stats.traces_captured);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", stats.cache.hit_rate());
    out += ",\"cache\":{\"hits\":" + std::to_string(stats.cache.hits) +
           ",\"misses\":" + std::to_string(stats.cache.misses) + ",\"hit_rate\":" + buf +
           ",\"entries\":" + std::to_string(stats.cache.entries) +
           ",\"bytes\":" + std::to_string(stats.cache.bytes) +
           ",\"evictions\":" + std::to_string(stats.cache.evictions) +
           ",\"invalidations\":" + std::to_string(stats.cache.invalidations) + "}";
    out += ",\"memo\":{\"hits\":" + std::to_string(stats.memo.hits) +
           ",\"misses\":" + std::to_string(stats.memo.misses) +
           ",\"sat_hits\":" + std::to_string(stats.memo.sat_hits) +
           ",\"entries\":" + std::to_string(stats.memo.entries) +
           ",\"bytes\":" + std::to_string(stats.memo.bytes) +
           ",\"evictions\":" + std::to_string(stats.memo.evictions) +
           ",\"invalidations\":" + std::to_string(stats.memo.invalidations) +
           ",\"gate_fallbacks\":" + std::to_string(stats.memo.gate_fallbacks) + "}";
    out += ",\"locks\":" + obs::locks().render_json();
    out += ",\"model_version\":" + std::to_string(rs.model_version);
    out += rs.versions_agree ? ",\"versions_agree\":true" : ",\"versions_agree\":false";
    out += ",\"routed\":{\"affinity\":" + std::to_string(rs.routed_affinity) +
           ",\"fallback\":" + std::to_string(rs.routed_fallback) + "}";
    out += ",\"replicas\":[";
    for (std::size_t i = 0; i < rs.replicas.size(); ++i) {
        const ReplicaStats& replica = rs.replicas[i];
        if (i > 0) out += ",";
        out += "{\"queue_depth\":" + std::to_string(replica.queue_depth) +
               ",\"model_version\":" + std::to_string(replica.model_version) +
               ",\"submitted\":" + std::to_string(replica.service.submitted) +
               ",\"completed\":" + std::to_string(replica.service.completed) + "}";
    }
    out += "]";
    if (sources.tcp != nullptr) out += ",\"conn\":" + transport_stats_json(sources.tcp->stats());
    if (sources.state != nullptr) {
        out += ",\"store\":" + store_status_json(sources.state->status());
    }
    if (window != nullptr) {
        out += ",\"window\":{";
        bool first = true;
        std::vector<PhaseCost> costs;
        for (std::chrono::seconds span : kWindowSpans) {
            if (!first) out += ",";
            first = false;
            obs::WindowDelta delta = window->window(span);
            out += std::string("\"") + span_name(span) +
                   "\":" + windowed_serve_stats_json(serve_stats_over(delta));
            if (span == kCostSpan) costs = phase_costs(delta);
        }
        out += "},\"costs\":[";
        for (std::size_t i = 0; i < costs.size(); ++i) {
            const PhaseCost& cost = costs[i];
            char row[256];
            std::snprintf(row, sizeof(row),
                          "%s{\"check\":\"%s\",\"calls\":%llu,\"mean_us\":%.3f,\"hz\":%.3f,"
                          "\"us_per_s\":%.3f}",
                          i > 0 ? "," : "", cost.check.c_str(),
                          static_cast<unsigned long long>(cost.calls), cost.mean_us, cost.hz,
                          cost.us_per_s);
            out += row;
        }
        out += "]";
    }
    out += "}";
    return out;
}

std::string healthz_json(const AmsRouter& router, bool draining) {
    RouterStats rs = router.snapshot_stats();
    std::string out = "{";
    out += std::string("\"status\":\"") + (draining ? "draining" : "ok") + "\"";
    out += ",\"replicas\":" + std::to_string(rs.replicas.size());
    out += ",\"model_version\":" + std::to_string(rs.model_version);
    out += rs.versions_agree ? ",\"versions_agree\":true" : ",\"versions_agree\":false";
    out += ",\"queue_depth\":" + std::to_string(rs.total.queue_depth);
    out += "}";
    return out;
}

obs::MetricsSnapshot serve_metrics(const ServeSources& sources) {
    obs::MetricsSnapshot out = obs::metrics().snapshot();
    auto counter = [&out](std::string_view name, std::uint64_t value,
                          const obs::MetricLabels& labels = {}) {
        out.counters.emplace_back(obs::metric_key(name, labels), value);
    };
    auto gauge = [&out](std::string_view name, std::uint64_t value,
                        const obs::MetricLabels& labels = {}) {
        out.gauges.emplace_back(obs::metric_key(name, labels), static_cast<std::int64_t>(value));
    };

    RouterStats rs = sources.router.snapshot_stats();
    const ServiceStats& total = rs.total;
    counter("srv.requests", total.submitted);
    counter("srv.decisions", total.completed);
    counter("srv.permitted", total.permitted);
    counter("srv.denied", total.denied);
    counter("srv.overloaded", total.rejected_overload);
    counter("srv.expired", total.expired);
    counter("srv.errors", total.errors);
    counter("srv.traces_captured", total.traces_captured);
    counter("srv.cache_hits", total.cache.hits);
    counter("srv.cache_misses", total.cache.misses);
    gauge("srv.cache.entries", total.cache.entries);
    gauge("srv.cache.bytes", total.cache.bytes);
    counter("srv.cache.evictions", total.cache.evictions);
    counter("srv.cache.invalidations", total.cache.invalidations);
    counter("memo.hits", total.memo.hits);
    counter("memo.misses", total.memo.misses);
    counter("memo.sat_hits", total.memo.sat_hits);
    gauge("memo.entries", total.memo.entries);
    gauge("memo.bytes", total.memo.bytes);
    counter("memo.evictions", total.memo.evictions);
    counter("memo.invalidations", total.memo.invalidations);
    counter("memo.gate_fallbacks", total.memo.gate_fallbacks);
    gauge("srv.router.versions_agree", rs.versions_agree ? 1 : 0);
    counter("srv.router.routed_affinity", rs.routed_affinity);
    counter("srv.router.routed_fallback", rs.routed_fallback);
    for (std::size_t i = 0; i < rs.replicas.size(); ++i) {
        obs::MetricLabels replica{{"replica", std::to_string(i)}};
        gauge("srv.replica.model_version", rs.replicas[i].model_version, replica);
        gauge("srv.replica.queue_depth", rs.replicas[i].queue_depth, replica);
    }
    if (sources.tcp != nullptr) {
        TransportStats conn = sources.tcp->stats();
        counter("srv.conn.accepted", conn.accepted);
        counter("srv.conn.closed", conn.closed);
        gauge("srv.conn.active", conn.active);
        counter("srv.conn.lines_in", conn.lines_in);
        counter("srv.conn.bytes_in", conn.bytes_in);
        counter("srv.conn.bytes_out", conn.bytes_out);
        counter("srv.conn.bad_requests", conn.bad_requests);
        counter("srv.conn.slow_disconnects", conn.slow_client_disconnects);
        counter("srv.conn.idle_disconnects", conn.idle_disconnects);
        counter("srv.conn.oversized_disconnects", conn.oversized_disconnects);
    }
    if (sources.audit != nullptr) {
        AuditStats audit = sources.audit->stats();
        counter("srv.audit.records", audit.records);
        counter("srv.audit.sampled_out", audit.sampled_out);
        counter("srv.audit.rotations", audit.rotations);
        counter("srv.audit.write_errors", audit.write_errors);
    }
    if (sources.state != nullptr) {
        store::StoreStatus status = sources.state->status();
        counter("store.snapshots", status.snapshots_written);
        counter("store.snapshot_failures", status.snapshot_failures);
        out.gauges.emplace_back("store.snapshot_age_seconds", snapshot_age_s(status));
        gauge("store.snapshot_bytes", status.snapshot_bytes);
        gauge("store.snapshot_policies", status.snapshot_policies);
        gauge("store.restored", status.restored ? 1 : 0);
    }
    return out;
}

obs::Exposition serve_exposition(const ServeSources& sources, bool draining,
                                 const obs::RollingWindow* window) {
    obs::Exposition exposition;
    exposition.append_snapshot(serve_metrics(sources));
    exposition.append_locks(obs::locks());
    exposition.add_gauge("srv.up", {}, 1, "1 while the serve process is alive");
    exposition.add_gauge("srv.draining", {}, draining ? 1 : 0,
                         "1 once graceful shutdown has started");
    if (window != nullptr) {
        for (std::chrono::seconds span : kWindowSpans) {
            WindowedServeStats ws = windowed_serve_stats(*window, span);
            obs::MetricLabels labels{{"span", span_name(span)}};
            exposition.add_gauge_d("window.requests_per_s", labels, ws.requests_per_s,
                                   "Windowed request rate by span");
            exposition.add_gauge_d("window.cache_hit_rate", labels, ws.hit_rate,
                                   "Windowed decision-cache hit rate by span");
            exposition.add_gauge_d("window.latency_p50_us", labels, ws.p50_us,
                                   "Windowed p50 request latency by span");
            exposition.add_gauge_d("window.latency_p95_us", labels, ws.p95_us,
                                   "Windowed p95 request latency by span");
            exposition.add_gauge_d("window.latency_p99_us", labels, ws.p99_us,
                                   "Windowed p99 request latency by span");
        }
    }
    return exposition;
}

}  // namespace agenp::srv
