#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/metrics.hpp"

namespace pb {

double median(std::vector<double> values) {
    if (values.empty()) return 0;
    std::sort(values.begin(), values.end());
    return quantile_sorted(values, 0.5);
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0;
    auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

TailSummary summarize_tail(std::vector<double> values) {
    TailSummary out;
    out.samples = values.size();
    if (values.empty()) return out;
    std::sort(values.begin(), values.end());
    out.p50 = quantile_sorted(values, 0.5);
    for (double pct : {99.0, 95.0, 90.0, 50.0}) {
        double beyond = static_cast<double>(values.size()) * (1.0 - pct / 100.0);
        if (beyond >= 10.0) {
            out.tail = quantile_sorted(values, pct / 100.0);
            out.tail_percentile = pct;
            return out;
        }
    }
    return out;
}

void JsonLine::key(std::string_view k) {
    if (body_.size() > 1) body_ += ",";
    body_ += "\"" + agenp::obs::json_escape(k) + "\":";
}

JsonLine& JsonLine::num(std::string_view k, double value) {
    key(k);
    if (!std::isfinite(value)) {
        body_ += "null";
        return *this;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", value);
    body_ += buf;
    return *this;
}

JsonLine& JsonLine::integer(std::string_view k, std::uint64_t value) {
    key(k);
    body_ += std::to_string(value);
    return *this;
}

JsonLine& JsonLine::boolean(std::string_view k, bool value) {
    key(k);
    body_ += value ? "true" : "false";
    return *this;
}

JsonLine& JsonLine::str(std::string_view k, std::string_view value) {
    key(k);
    body_ += "\"" + agenp::obs::json_escape(value) + "\"";
    return *this;
}

JsonLine& JsonLine::raw(std::string_view k, std::string_view json) {
    key(k);
    body_ += json;
    return *this;
}

}  // namespace pb
