#include "obs/export/exposition.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace agenp::obs {

namespace {

// Registry names that already carry the project prefix as their first
// segment (agenp.pdp.permitted) are not prefixed a second time.
bool has_project_prefix(std::string_view dotted) { return dotted.rfind("agenp.", 0) == 0; }

std::string prometheus_name(std::string_view dotted) {
    std::string out = has_project_prefix(dotted) ? "" : "agenp_";
    for (char c : dotted) out.push_back(c == '.' ? '_' : c);
    return out;
}

void append_labels(std::string& out, const MetricLabels& labels) {
    if (labels.empty()) return;
    out.push_back('{');
    bool first = true;
    for (const auto& [key, value] : labels) {
        if (!first) out.push_back(',');
        out += key;
        out += "=\"";
        out += prometheus_label_escape(value);
        out.push_back('"');
        first = false;
    }
    out.push_back('}');
}

// Labels plus one extra pair — the histogram `le` bucket bound.
void append_labels_le(std::string& out, const MetricLabels& labels, std::string_view le) {
    out.push_back('{');
    for (const auto& [key, value] : labels) {
        out += key;
        out += "=\"";
        out += prometheus_label_escape(value);
        out += "\",";
    }
    out += "le=\"";
    out += le;
    out += "\"}";
}

std::string format_double(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

// Upper bound of bit-width bucket i: the largest value with bit_width == i
// is 2^i - 1 (bucket 0 holds only the value 0).
std::uint64_t bucket_upper(std::size_t i) {
    if (i == 0) return 0;
    if (i >= 64) return ~std::uint64_t{0};
    return (std::uint64_t{1} << i) - 1;
}

}  // namespace

std::string prometheus_label_escape(std::string_view value) {
    std::string out;
    out.reserve(value.size());
    for (char c : value) {
        switch (c) {
            case '\\': out += "\\\\"; break;
            case '"': out += "\\\""; break;
            case '\n': out += "\\n"; break;
            default: out.push_back(c);
        }
    }
    return out;
}

Exposition::Family& Exposition::family(std::string_view name, char type, std::string_view help) {
    assert(valid_metric_name(name));
    for (Family& f : families_) {
        if (f.name == name) {
            assert(f.type == type);
            if (f.help.empty() && !help.empty()) f.help = help;
            return f;
        }
    }
    Family f;
    f.name = std::string(name);
    f.type = type;
    f.help = std::string(help);
    families_.push_back(std::move(f));
    return families_.back();
}

void Exposition::add_counter(std::string_view name, const MetricLabels& labels,
                             std::uint64_t value, std::string_view help) {
    Sample s;
    s.labels = labels;
    s.uvalue = value;
    family(name, 'c', help).samples.push_back(std::move(s));
}

void Exposition::add_gauge(std::string_view name, const MetricLabels& labels, std::int64_t value,
                           std::string_view help) {
    Sample s;
    s.labels = labels;
    s.ivalue = value;
    family(name, 'g', help).samples.push_back(std::move(s));
}

void Exposition::add_gauge_d(std::string_view name, const MetricLabels& labels, double value,
                             std::string_view help) {
    Sample s;
    s.labels = labels;
    s.dvalue = value;
    s.is_double = true;
    family(name, 'g', help).samples.push_back(std::move(s));
}

void Exposition::add_histogram(std::string_view name, const MetricLabels& labels,
                               const Histogram::Snapshot& snapshot, std::string_view help) {
    Sample s;
    s.labels = labels;
    s.hist = snapshot;
    family(name, 'h', help).samples.push_back(std::move(s));
}

void Exposition::append_snapshot(const MetricsSnapshot& snapshot) {
    std::string name;
    MetricLabels labels;
    for (const auto& [key, value] : snapshot.counters) {
        if (!parse_metric_key(key, &name, &labels)) continue;
        add_counter(name, labels, value);
    }
    for (const auto& [key, value] : snapshot.gauges) {
        if (!parse_metric_key(key, &name, &labels)) continue;
        add_gauge(name, labels, value);
    }
    for (const auto& [key, value] : snapshot.histograms) {
        if (!parse_metric_key(key, &name, &labels)) continue;
        add_histogram(name, labels, value);
    }
}

void Exposition::append_locks(const LockRegistry& registry) {
    for (const LockStatsSnapshot& s : registry.snapshot()) {
        MetricLabels labels{{"lock", s.name}};
        add_counter("obs.lock.acquisitions", labels, s.acquisitions,
                    "Lock acquisitions by lock name");
        add_counter("obs.lock.contentions", labels, s.contentions,
                    "Contended lock acquisitions by lock name");
        add_histogram("obs.lock.wait_us", labels, s.wait_us,
                      "Lock wait time in microseconds by lock name");
    }
}

std::string Exposition::prometheus() const {
    std::vector<const Family*> sorted;
    sorted.reserve(families_.size());
    for (const Family& f : families_) sorted.push_back(&f);
    std::sort(sorted.begin(), sorted.end(),
              [](const Family* a, const Family* b) { return a->name < b->name; });

    std::string out;
    for (const Family* f : sorted) {
        std::string base = prometheus_name(f->name);
        // Counters carry the conventional `_total` suffix; the HELP/TYPE
        // lines name the full series the samples use.
        std::string series = f->type == 'c' ? base + "_total" : base;
        out += "# HELP " + series + " " +
               (f->help.empty() ? "agenp metric " + f->name : f->help) + "\n";
        out += "# TYPE " + series + " ";
        out += f->type == 'c' ? "counter" : (f->type == 'g' ? "gauge" : "histogram");
        out.push_back('\n');
        for (const Sample& s : f->samples) {
            if (f->type == 'c') {
                out += series;
                append_labels(out, s.labels);
                out += " " + std::to_string(s.uvalue) + "\n";
            } else if (f->type == 'g') {
                out += series;
                append_labels(out, s.labels);
                out += " " + (s.is_double ? format_double(s.dvalue) : std::to_string(s.ivalue)) +
                       "\n";
            } else {
                // Cumulative buckets up to the highest non-empty one, then
                // the mandatory le="+Inf" terminal bucket.
                std::size_t top = 0;
                for (std::size_t i = 0; i < s.hist.buckets.size(); ++i) {
                    if (s.hist.buckets[i] != 0) top = i;
                }
                std::uint64_t cumulative = 0;
                for (std::size_t i = 0; i <= top && i < s.hist.buckets.size(); ++i) {
                    cumulative += s.hist.buckets[i];
                    out += series + "_bucket";
                    append_labels_le(out, s.labels, std::to_string(bucket_upper(i)));
                    out += " " + std::to_string(cumulative) + "\n";
                }
                out += series + "_bucket";
                append_labels_le(out, s.labels, "+Inf");
                out += " " + std::to_string(s.hist.count) + "\n";
                out += series + "_sum";
                append_labels(out, s.labels);
                out += " " + std::to_string(s.hist.sum) + "\n";
                out += series + "_count";
                append_labels(out, s.labels);
                out += " " + std::to_string(s.hist.count) + "\n";
            }
        }
    }
    return out;
}

}  // namespace agenp::obs
