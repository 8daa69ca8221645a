#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>

#include "util/mutex.hpp"

namespace agenp::obs {

namespace {

std::atomic<bool> g_metrics_enabled{true};

// Lower edge of histogram bucket i (values with bit_width == i).
std::uint64_t bucket_lower(std::size_t i) {
    return i == 0 ? 0 : (i == 1 ? 1 : std::uint64_t{1} << (i - 1));
}

std::uint64_t bucket_upper(std::size_t i) {
    return i >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << i) - 1;
}

std::string format_double(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f", v);
    return buf;
}

}  // namespace

bool metrics_enabled() { return g_metrics_enabled.load(std::memory_order_relaxed); }
void set_metrics_enabled(bool enabled) {
    g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

std::uint64_t monotonic_ns() {
    static const auto epoch = std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                             epoch)
            .count());
}

std::string json_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

// --- Histogram --------------------------------------------------------------

void Histogram::observe(std::uint64_t value) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    buckets_[static_cast<std::size_t>(std::bit_width(value))].fetch_add(
        1, std::memory_order_relaxed);
    // Lock-free monotonic max/min.
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen && !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
    }
    seen = min_.load(std::memory_order_relaxed);
    while (value < seen && !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
    }
}

Histogram::Snapshot Histogram::snapshot() const {
    Snapshot s;
    s.count = count_.load(std::memory_order_relaxed);
    s.sum = sum_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
    std::uint64_t min = min_.load(std::memory_order_relaxed);
    s.min = s.count == 0 ? 0 : min;
    s.buckets.resize(kBuckets);
    for (std::size_t i = 0; i < kBuckets; ++i) {
        s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    return s;
}

void Histogram::reset() {
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
    min_.store(~std::uint64_t{0}, std::memory_order_relaxed);
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

double Histogram::Snapshot::quantile(double q) const {
    if (count == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    double rank = q * static_cast<double>(count - 1);
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        if (buckets[i] == 0) continue;
        if (rank < static_cast<double>(below + buckets[i])) {
            // Interpolate inside bucket i, clipped to the observed extremes.
            double frac = (rank - static_cast<double>(below)) / static_cast<double>(buckets[i]);
            double lo = static_cast<double>(std::max(bucket_lower(i), min));
            double hi = static_cast<double>(std::min(bucket_upper(i), max));
            return lo + frac * (hi - lo);
        }
        below += buckets[i];
    }
    return static_cast<double>(max);
}

// --- metric naming ----------------------------------------------------------

namespace {

bool is_name_start(char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

bool is_name_char(char c) { return is_name_start(c) || (c >= '0' && c <= '9'); }

}  // namespace

bool valid_metric_name(std::string_view name) {
    if (name.empty()) return false;
    bool segment_start = true;
    for (char c : name) {
        if (c == '.') {
            if (segment_start) return false;  // empty segment ("..", leading dot)
            segment_start = true;
            continue;
        }
        if (segment_start ? !is_name_start(c) : !is_name_char(c)) return false;
        segment_start = false;
    }
    return !segment_start;  // no trailing dot
}

bool valid_label_key(std::string_view key) {
    if (key.empty() || !is_name_start(key.front())) return false;
    for (char c : key.substr(1)) {
        if (!is_name_char(c)) return false;
    }
    return true;
}

std::string metric_key(std::string_view name, const MetricLabels& labels) {
    assert(valid_metric_name(name));
    std::string out(name);
    if (labels.empty()) return out;
    out += '{';
    bool first = true;
    for (const auto& [key, value] : labels) {
        assert(valid_label_key(key));
        if (!first) out += ',';
        out += key;
        out += "=\"";
        out += json_escape(value);
        out += '"';
        first = false;
    }
    out += '}';
    return out;
}

bool parse_metric_key(std::string_view key, std::string* name, MetricLabels* labels) {
    if (name != nullptr) name->clear();
    if (labels != nullptr) labels->clear();
    std::size_t brace = key.find('{');
    std::string_view base = key.substr(0, brace);
    if (!valid_metric_name(base)) return false;
    if (name != nullptr) name->assign(base);
    if (brace == std::string_view::npos) return true;
    if (key.back() != '}') return false;
    std::string_view body = key.substr(brace + 1, key.size() - brace - 2);
    while (!body.empty()) {
        std::size_t eq = body.find("=\"");
        if (eq == std::string_view::npos) return false;
        std::string_view label_key = body.substr(0, eq);
        if (!valid_label_key(label_key)) return false;
        body.remove_prefix(eq + 2);
        std::string value;
        bool closed = false;
        while (!body.empty()) {
            char c = body.front();
            body.remove_prefix(1);
            if (c == '"') {
                closed = true;
                break;
            }
            if (c == '\\' && !body.empty()) {
                char esc = body.front();
                body.remove_prefix(1);
                switch (esc) {
                    case 'n': value += '\n'; break;
                    case 'r': value += '\r'; break;
                    case 't': value += '\t'; break;
                    default: value += esc; break;  // \" and \\ (and passthrough)
                }
                continue;
            }
            value += c;
        }
        if (!closed) return false;
        if (labels != nullptr) labels->emplace_back(std::string(label_key), std::move(value));
        if (!body.empty()) {
            if (body.front() != ',') return false;
            body.remove_prefix(1);
            if (body.empty()) return false;  // trailing comma
        }
    }
    return true;
}

// --- MetricsRegistry --------------------------------------------------------

struct MetricsRegistry::Impl {
    mutable util::Mutex mutex;
    // std::map keeps node (and thus reference) stability on insert.
    std::map<std::string, Counter, std::less<>> counters GUARDED_BY(mutex);
    std::map<std::string, Histogram, std::less<>> histograms GUARDED_BY(mutex);
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}
MetricsRegistry::~MetricsRegistry() { delete impl_; }

Counter& MetricsRegistry::counter(std::string_view name) {
    assert(valid_metric_name(name));
    util::MutexLock lock(impl_->mutex);
    auto it = impl_->counters.find(name);
    if (it == impl_->counters.end()) {
        it = impl_->counters.try_emplace(std::string(name)).first;
    }
    return it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
    assert(valid_metric_name(name));
    util::MutexLock lock(impl_->mutex);
    auto it = impl_->histograms.find(name);
    if (it == impl_->histograms.end()) {
        it = impl_->histograms.try_emplace(std::string(name)).first;
    }
    return it->second;
}

Counter& MetricsRegistry::counter(std::string_view name, const MetricLabels& labels) {
    std::string key = metric_key(name, labels);
    util::MutexLock lock(impl_->mutex);
    auto it = impl_->counters.find(key);
    if (it == impl_->counters.end()) it = impl_->counters.try_emplace(std::move(key)).first;
    return it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name, const MetricLabels& labels) {
    std::string key = metric_key(name, labels);
    util::MutexLock lock(impl_->mutex);
    auto it = impl_->histograms.find(key);
    if (it == impl_->histograms.end()) it = impl_->histograms.try_emplace(std::move(key)).first;
    return it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
    util::MutexLock lock(impl_->mutex);
    MetricsSnapshot s;
    for (const auto& [name, c] : impl_->counters) s.counters.emplace_back(name, c.value());
    for (const auto& [name, h] : impl_->histograms) s.histograms.emplace_back(name, h.snapshot());
    return s;
}

std::string MetricsRegistry::render_text() const {
    auto s = snapshot();
    std::string out;
    std::size_t width = 0;
    for (const auto& [name, _] : s.counters) width = std::max(width, name.size());
    for (const auto& [name, _] : s.histograms) width = std::max(width, name.size());
    auto pad = [&](const std::string& name) {
        return name + std::string(width - name.size() + 2, ' ');
    };
    for (const auto& [name, value] : s.counters) {
        out += pad(name) + std::to_string(value) + "\n";
    }
    for (const auto& [name, h] : s.histograms) {
        out += pad(name) + "count=" + std::to_string(h.count) + " mean=" + format_double(h.mean()) +
               " p50=" + format_double(h.quantile(0.5)) + " p90=" + format_double(h.quantile(0.9)) +
               " p99=" + format_double(h.quantile(0.99)) + " max=" + std::to_string(h.max) + "\n";
    }
    return out;
}

std::string MetricsRegistry::render_json() const {
    auto s = snapshot();
    std::string out = "{\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : s.counters) {
        if (!first) out += ",";
        out += "\"" + json_escape(name) + "\":" + std::to_string(value);
        first = false;
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto& [name, h] : s.histograms) {
        if (!first) out += ",";
        out += "\"" + json_escape(name) + "\":{\"count\":" + std::to_string(h.count) +
               ",\"sum\":" + std::to_string(h.sum) + ",\"mean\":" + format_double(h.mean()) +
               ",\"p50\":" + format_double(h.quantile(0.5)) +
               ",\"p90\":" + format_double(h.quantile(0.9)) +
               ",\"p99\":" + format_double(h.quantile(0.99)) +
               ",\"max\":" + std::to_string(h.max) + "}";
        first = false;
    }
    out += "}}";
    return out;
}

void MetricsRegistry::reset() {
    util::MutexLock lock(impl_->mutex);
    for (auto& [_, c] : impl_->counters) c.reset();
    for (auto& [_, h] : impl_->histograms) h.reset();
}

MetricsRegistry& metrics() {
    static MetricsRegistry registry;
    return registry;
}

}  // namespace agenp::obs
