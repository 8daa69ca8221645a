// Sample summaries and the one-line JSON the benchmark binaries print.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

// Median of `values` (0 when empty).
double median(std::vector<double> values);

// Nearest-rank quantile of an ascending-sorted sample, q in [0, 1].
double quantile_sorted(const std::vector<double>& sorted, double q);

// A latency sample reduced to its median and its tail: the highest of the
// 99th, 95th, 90th and 50th percentiles that still has at least ten
// samples above it, with the sample count it came from.
struct TailSummary {
    double p50 = 0;
    double tail = 0;
    double tail_percentile = 0;  // 0 when the sample is too small for any tail
    std::size_t samples = 0;
};
TailSummary summarize_tail(std::vector<double> values);

// Ordered, flat JSON object writer for the binaries' report lines.
class JsonLine {
public:
    JsonLine& num(std::string_view key, double value);
    JsonLine& integer(std::string_view key, std::uint64_t value);
    JsonLine& boolean(std::string_view key, bool value);
    JsonLine& str(std::string_view key, std::string_view value);
    JsonLine& raw(std::string_view key, std::string_view json);
    [[nodiscard]] std::string done() const { return body_ + "}"; }

private:
    void key(std::string_view k);
    std::string body_ = "{";
};

}  // namespace pb
