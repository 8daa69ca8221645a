#include "srv/flight.hpp"

#include <algorithm>
#include <bit>

namespace agenp::srv {

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(std::bit_ceil(std::max<std::size_t>(capacity, 2))), slots_(capacity_) {}

void FlightRecorder::record(const FlightRecord& record) {
    util::MutexLock lock(mu_);
    slots_[recorded_ % capacity_] = record;
    ++recorded_;
}

std::vector<FlightRecord> FlightRecorder::snapshot() const {
    std::vector<FlightRecord> out;
    {
        util::MutexLock lock(mu_);
        auto retained = static_cast<std::ptrdiff_t>(std::min<std::uint64_t>(recorded_, capacity_));
        out.assign(slots_.begin(), slots_.begin() + retained);
    }
    std::sort(out.begin(), out.end(),
              [](const FlightRecord& a, const FlightRecord& b) { return a.id < b.id; });
    return out;
}

std::uint64_t FlightRecorder::total_recorded() const {
    util::MutexLock lock(mu_);
    return recorded_;
}

std::string flight_record_json(const FlightRecord& record) {
    std::string out = "{";
    out += "\"id\":" + std::to_string(record.id);
    out += ",\"client\":" + std::to_string(record.client);
    out += ",\"outcome\":" + std::to_string(record.outcome);
    out += ",\"cache_hit\":" + std::string(record.cache_hit ? "true" : "false");
    out += ",\"model_version\":" + std::to_string(record.model_version);
    out += ",\"queue_us\":" + std::to_string(record.queue_us);
    out += ",\"solve_us\":" + std::to_string(record.solve_us);
    out += ",\"total_us\":" + std::to_string(record.total_us);
    out += "}";
    return out;
}

std::string FlightRecorder::render_json_lines() const {
    std::string out;
    for (const FlightRecord& r : snapshot()) {
        out += flight_record_json(r);
        out += "\n";
    }
    return out;
}

}  // namespace agenp::srv
