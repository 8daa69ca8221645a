// Metric exposition: one enumeration of the process's telemetry rendered
// for external consumers. An Exposition is a collected snapshot — callers
// append samples (usually via append_snapshot / append_locks, which split
// metric_key() encodings back into base name + labels) and then render
// the whole set as Prometheus text exposition format 0.0.4 (the
// `/metrics` pull path). The serving layer appends one MetricsSnapshot
// that lists the registry's instruments next to the counts its objects
// keep (srv::serve_metrics).
//
// Name mapping: metric names are dot-separated (`srv.conn.accepted`);
// Prometheus output prefixes `agenp_` and maps dots to underscores
// (`agenp_srv_conn_accepted_total`), which is always charset-valid because
// registration asserts valid_metric_name().
//
// Histograms are rendered as native Prometheus histograms: the bit-width
// bucket i (values v with bit_width(v) == i, i.e. [2^(i-1), 2^i)) becomes
// the cumulative bucket le="2^i - 1"; buckets above the highest non-empty
// one are trimmed and the mandatory le="+Inf" terminal bucket carries the
// total count.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/lockprof.hpp"
#include "obs/metrics.hpp"

namespace agenp::obs {

class Exposition {
public:
    // `help` is the one-line HELP text; empty picks a generic line. The
    // first help string registered for a family wins. `name` must satisfy
    // valid_metric_name (asserted in debug builds, like the registry).
    void add_counter(std::string_view name, const MetricLabels& labels, std::uint64_t value,
                     std::string_view help = {});
    void add_gauge(std::string_view name, const MetricLabels& labels, std::int64_t value,
                   std::string_view help = {});
    // Floating-point gauge (windowed rates and quantiles). Distinctly named
    // rather than overloaded so integral arguments never become ambiguous.
    void add_gauge_d(std::string_view name, const MetricLabels& labels, double value,
                     std::string_view help = {});
    void add_histogram(std::string_view name, const MetricLabels& labels,
                       const Histogram::Snapshot& snapshot, std::string_view help = {});

    // Appends every entry of `snapshot` (a registry's snapshot(), or any
    // list in its shape), splitting labeled keys with parse_metric_key
    // (keys that fail to parse are skipped — they cannot exist for
    // registrations that passed the debug assert).
    void append_snapshot(const MetricsSnapshot& snapshot);

    // Appends per-lock acquisition/contention counters and the wait-time
    // histogram, with the lock name as a `lock` label.
    void append_locks(const LockRegistry& registry);

    // Prometheus text exposition format 0.0.4: families sorted by name,
    // each with `# HELP` and `# TYPE` lines; counters get a `_total`
    // suffix; histograms render `_bucket`/`_sum`/`_count` series.
    [[nodiscard]] std::string prometheus() const;

private:
    struct Family;
    Family& family(std::string_view name, char type, std::string_view help);

    struct Sample {
        MetricLabels labels;
        std::uint64_t uvalue = 0;
        std::int64_t ivalue = 0;
        double dvalue = 0.0;
        bool is_double = false;
        Histogram::Snapshot hist;
    };
    struct Family {
        std::string name;  // dotted registry name
        char type = 'c';   // 'c' counter, 'g' gauge, 'h' histogram
        std::string help;
        std::vector<Sample> samples;
    };
    std::vector<Family> families_;  // insertion-ordered; rendered sorted
};

// Escapes a Prometheus label value (backslash, double quote, newline).
std::string prometheus_label_escape(std::string_view value);

}  // namespace agenp::obs
