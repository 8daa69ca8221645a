// Process-wide metrics: named counters and fixed-bucket latency
// histograms (DESIGN.md section "Observability").
//
// Design goals, in order:
//  1. Hot-path cost: incrementing a held Counter& is one relaxed atomic
//     add; instrumented loops accumulate into plain locals and flush once
//     per operation. When metrics are globally disabled the flush helpers
//     return immediately.
//  2. Thread safety: all mutation is lock-free (std::atomic); only
//     registration (first lookup of a name) takes a mutex, and returned
//     references stay valid for the life of the process.
//  3. Exportability: the registry renders a snapshot as aligned text or a
//     single-line JSON object, suitable for `agenp --stats` and for the
//     BENCH_*_JSON lines the benchmarks emit.
//
// Conventions: metric names are dot-separated (`asp.solver.decisions`);
// a histogram that records durations names its unit in its suffix
// (`phase_ns` observes nanoseconds). Per-instance dimensions (replica,
// shard, lock) are labels, not name segments, so exporters can aggregate
// across them — see metric_key() and the labeled registry overloads.
//
// Scope: the registry holds what no per-instance object owns — the
// library counters (asp.*, cfg.*, asg.membership.*, ilp.*, agenp.*) and
// the phase_ns histograms. An event is counted once: a library call
// timed by a phase is counted by phase_ns{phase}'s count, not by a
// counter too, and a serving event by the object it happens in
// (srv::ServiceStats, srv::TransportStats, ...); the serving layer lists
// those, its gauges included, next to this registry's snapshot in one
// MetricsSnapshot (srv::serve_metrics) instead of counting them twice.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace agenp::obs {

// Global kill switch. Defaults to enabled; disabling makes the flush
// helpers and obs::Phase's histogram sink no-ops (call sites that cache
// Counter& still pay one relaxed add — near-zero either way). Serving
// counts are not registry instruments and are kept regardless.
bool metrics_enabled();
void set_metrics_enabled(bool enabled);

class Counter {
public:
    void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
    [[nodiscard]] std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
    void reset() { value_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> value_{0};
};

// Fixed-bucket histogram over non-negative integers. Bucket i collects
// values v with bit_width(v) == i, i.e. exponentially sized buckets
// [2^(i-1), 2^i); quantiles interpolate linearly inside a bucket. 64
// buckets cover the full uint64 range, so observe() never clips.
class Histogram {
public:
    static constexpr std::size_t kBuckets = 65;  // bit_width in [0, 64]

    void observe(std::uint64_t value);

    struct Snapshot {
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
        std::uint64_t min = 0;
        std::uint64_t max = 0;
        std::vector<std::uint64_t> buckets;

        [[nodiscard]] double mean() const {
            return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
        }
        // Approximate quantile, q in [0, 1].
        [[nodiscard]] double quantile(double q) const;
    };

    [[nodiscard]] Snapshot snapshot() const;
    void reset();

private:
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
    std::atomic<std::uint64_t> max_{0};
    std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
    std::atomic<std::uint64_t> buckets_[kBuckets]{};
};

// --- metric naming ----------------------------------------------------------
//
// A registry base name is dot-separated lowercase segments:
//   name     = segment *("." segment)
//   segment  = [a-zA-Z_][a-zA-Z0-9_]*
// Mapping dots to underscores therefore always yields a name valid under
// Prometheus rules ([a-zA-Z_:][a-zA-Z0-9_:]*). Registration asserts this
// in debug builds; exporters rely on it.
bool valid_metric_name(std::string_view name);

// Label keys follow the Prometheus label grammar [a-zA-Z_][a-zA-Z0-9_]*.
bool valid_label_key(std::string_view key);

// One metric dimension, e.g. {"replica", "0"} or {"lock", "srv.model"}.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

// Canonical registry key for a (name, labels) pair:
//   srv.replica.queue_depth{replica="0"}
// Unlabeled metrics use the bare name. Label values are escaped like JSON
// strings (\" \\ \n), so the encoding round-trips.
std::string metric_key(std::string_view name, const MetricLabels& labels);

// Splits a registry key back into base name and labels (the exporter's
// enumeration path). Returns false when `key` is not a valid encoding.
bool parse_metric_key(std::string_view key, std::string* name, MetricLabels* labels);

struct MetricsSnapshot {
    // Keys are metric_key() encodings: base name plus optional {labels}.
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    // Filled by the serving layer (srv::serve_metrics); the registry has
    // no gauges.
    std::vector<std::pair<std::string, std::int64_t>> gauges;
    std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;
};

class MetricsRegistry {
public:
    // References are stable for the life of the registry; looking up the
    // same name always returns the same instrument. Debug builds assert
    // valid_metric_name(name) / valid_label_key(key) on first registration.
    Counter& counter(std::string_view name);
    Histogram& histogram(std::string_view name);

    // Labeled variants: one instrument per distinct (name, labels) pair,
    // enumerable by exporters as a single family with per-label samples.
    Counter& counter(std::string_view name, const MetricLabels& labels);
    Histogram& histogram(std::string_view name, const MetricLabels& labels);

    [[nodiscard]] MetricsSnapshot snapshot() const;

    // Human-readable dump, sorted by name, histograms with count/mean/p50/
    // p90/p99/max.
    [[nodiscard]] std::string render_text() const;
    // Single-line JSON object:
    //   {"counters":{...},"histograms":{"x":{"count":..}}}
    [[nodiscard]] std::string render_json() const;

    // Zeroes every registered instrument (names stay registered).
    void reset();

    ~MetricsRegistry();
    MetricsRegistry();
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

private:
    struct Impl;
    Impl* impl_;
};

// The process-wide registry used by all instrumentation call sites.
MetricsRegistry& metrics();

// Monotonic nanoseconds since an arbitrary process-local epoch: the one
// clock phases, traces and the serving layer's deadlines read.
std::uint64_t monotonic_ns();

// Escapes a string for embedding in a JSON string literal.
std::string json_escape(std::string_view s);

}  // namespace agenp::obs
