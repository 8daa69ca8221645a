#include "srv/flight.hpp"

#include <algorithm>
#include <bit>
#include <thread>

namespace agenp::srv {

FlightRecorder::FlightRecorder(std::size_t capacity)
    : slots_(std::bit_ceil(std::max<std::size_t>(capacity, 2))) {
    mask_ = slots_.size() - 1;
}

void FlightRecorder::record(const FlightRecord& record) {
    std::uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots_[seq & mask_];
    // Odd = write in progress. 2*seq is unique per write, so a reader can
    // never confuse two generations of the same slot. Writers that wrap
    // onto one slot (seq and seq + capacity) take turns: a write claims
    // the slot by swapping an older even sequence for its own odd one,
    // waits out an older write still in progress, and drops itself when a
    // newer generation already holds the slot.
    const std::uint64_t writing = 2 * seq + 1;
    std::uint64_t current = slot.seq.load(std::memory_order_relaxed);
    while (true) {
        if (current > writing) return;
        if (current % 2 == 1) {
            std::this_thread::yield();
            current = slot.seq.load(std::memory_order_relaxed);
        } else if (slot.seq.compare_exchange_weak(current, writing, std::memory_order_acquire,
                                                  std::memory_order_relaxed)) {
            break;  // acquire: the previous generation's payload stores come first
        }
    }
    // Orders the odd claim before the payload stores, pairing with the
    // acquire fence in snapshot().
    std::atomic_thread_fence(std::memory_order_release);
    slot.id.store(record.id, std::memory_order_relaxed);
    slot.client.store(record.client, std::memory_order_relaxed);
    slot.model_version.store(record.model_version, std::memory_order_relaxed);
    slot.queue_us.store(record.queue_us, std::memory_order_relaxed);
    slot.solve_us.store(record.solve_us, std::memory_order_relaxed);
    slot.total_us.store(record.total_us, std::memory_order_relaxed);
    slot.outcome.store(record.outcome, std::memory_order_relaxed);
    slot.cache_hit.store(record.cache_hit, std::memory_order_relaxed);
    slot.seq.store(2 * seq + 2, std::memory_order_release);
}

std::vector<FlightRecord> FlightRecorder::snapshot() const {
    std::vector<FlightRecord> out;
    out.reserve(slots_.size());
    for (const Slot& slot : slots_) {
        std::uint64_t before = slot.seq.load(std::memory_order_acquire);
        if (before == 0 || before % 2 == 1) continue;  // empty or mid-write
        FlightRecord r;
        r.id = slot.id.load(std::memory_order_relaxed);
        r.client = slot.client.load(std::memory_order_relaxed);
        r.model_version = slot.model_version.load(std::memory_order_relaxed);
        r.queue_us = slot.queue_us.load(std::memory_order_relaxed);
        r.solve_us = slot.solve_us.load(std::memory_order_relaxed);
        r.total_us = slot.total_us.load(std::memory_order_relaxed);
        r.outcome = slot.outcome.load(std::memory_order_relaxed);
        r.cache_hit = slot.cache_hit.load(std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_acquire);
        if (slot.seq.load(std::memory_order_relaxed) != before) continue;  // torn
        out.push_back(r);
    }
    std::sort(out.begin(), out.end(),
              [](const FlightRecord& a, const FlightRecord& b) { return a.id < b.id; });
    return out;
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
