// Flight recorder: a fixed-size lock-free ring of recent request
// summaries (DESIGN.md section 7).
//
// The serving layer records one compact, string-free summary per request
// — id, outcome, per-phase latencies, cache hit/miss, model version — so
// an operator can always ask "what did the last N requests look like?"
// without having enabled tracing beforehand. `agenp serve` dumps it on
// demand via the `!flight` control line.
//
// Concurrency: record() takes no lock. Each slot is a tiny seqlock built
// entirely from atomics: the writer claims a sequence number with one
// fetch_add, claims the slot by compare-exchanging its even sequence for
// the writer's own odd one (write in progress), stores the payload with
// relaxed atomics, then publishes by storing the even sequence. A slot
// has one writer at a time: a write that wraps onto a slot another write
// still holds waits for it, and a write that finds a newer generation
// already there drops itself. A reader that observes an odd or changed
// sequence discards the slot instead of blocking. All payload fields are
// std::atomic, so there is no data race for TSan to object to — the
// sequence check only guards against mixing fields of two records.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

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

    // Never blocks on readers; overwrites the oldest slot once the ring is
    // full (a record that lost its slot to a newer one is dropped).
    void record(const FlightRecord& record);

    // Consistent records currently retained, oldest first (by id).
    [[nodiscard]] std::vector<FlightRecord> snapshot() const;

    [[nodiscard]] std::uint64_t total_recorded() const {
        return next_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

    // One JSON object per line, oldest first.
    [[nodiscard]] std::string render_json_lines() const;

private:
    struct Slot {
        std::atomic<std::uint64_t> seq{0};  // 0 = never written; odd = writing
        std::atomic<std::uint64_t> id{0};
        std::atomic<std::uint64_t> client{0};
        std::atomic<std::uint64_t> model_version{0};
        std::atomic<std::uint64_t> queue_us{0};
        std::atomic<std::uint64_t> solve_us{0};
        std::atomic<std::uint64_t> total_us{0};
        std::atomic<std::uint8_t> outcome{0};
        std::atomic<bool> cache_hit{false};
    };

    std::atomic<std::uint64_t> next_{0};  // sequence numbers handed to writers
    std::vector<Slot> slots_;
    std::uint64_t mask_ = 0;
};

std::string flight_record_json(const FlightRecord& record);

}  // namespace agenp::srv
