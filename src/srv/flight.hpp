// Flight recorder: a fixed-size ring of recent request summaries
// (DESIGN.md section 7).
//
// The serving layer records one compact, string-free summary per request
// — id, outcome, per-phase latencies, cache hit/miss, model version — so
// an operator can always ask "what did the last N requests look like?"
// without having enabled tracing beforehand. `agenp serve` dumps it on
// demand via the `!flight` control line.
//
// Concurrency: one util::Mutex guards the ring. record() holds it for one
// slot copy; snapshot() for a copy of the retained records, and it sorts
// them after releasing it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace agenp::srv {

struct FlightRecord {
    std::uint64_t id = 0;      // request id; monotone in record order
    std::uint64_t client = 0;  // transport connection id; 0 = in-process
    std::uint64_t model_version = 0;
    std::uint64_t queue_us = 0;  // enqueue -> worker dequeue; 0 for a hit answered in submit()
    std::uint64_t solve_us = 0;  // verdict: the cache probe on a hit, the PDP on a miss
    std::uint64_t total_us = 0;  // submit -> completion
    std::uint8_t outcome = 0;    // srv::Outcome, narrowed
    bool cache_hit = false;
};

class FlightRecorder {
public:
    static constexpr std::size_t kDefaultCapacity = 256;

    // Capacity is rounded up to a power of two (minimum 2).
    explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

    // Overwrites the oldest record once the ring is full.
    void record(const FlightRecord& record);

    // The newest capacity() records, sorted by id.
    [[nodiscard]] std::vector<FlightRecord> snapshot() const;

    [[nodiscard]] std::uint64_t total_recorded() const;
    [[nodiscard]] std::size_t capacity() const { return capacity_; }

    // One JSON object per line, oldest first.
    [[nodiscard]] std::string render_json_lines() const;

private:
    const std::size_t capacity_;
    mutable util::Mutex mu_;
    std::vector<FlightRecord> slots_ GUARDED_BY(mu_);
    std::uint64_t recorded_ GUARDED_BY(mu_) = 0;  // the next record goes to recorded_ % capacity_
};

std::string flight_record_json(const FlightRecord& record);

}  // namespace agenp::srv
