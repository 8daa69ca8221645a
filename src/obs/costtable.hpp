// Per-phase cost attribution: EWMA cost x observed frequency for every
// PhaseId (DESIGN.md section 7.5).
//
// The rspamd symbols_cache idiom: every phase keeps an exponentially
// weighted moving average of its per-call cost (updated on each
// observation) and of its call frequency (updated by a 1 Hz tick). Their
// product — expected microseconds of wall time consumed per second — is a
// live "where does the CPU budget go" ranking, and exactly the signal the
// profile-guided adaptive-scheduling ROADMAP item needs to reorder checks
// and pick strategies.
//
// Hot path: obs::Phase feeds cell(id).observe(), two relaxed atomic adds
// plus one CAS loop on a bit-cast double — no locks, no name lookup: the
// cells are a fixed array indexed by PhaseId. Costs accumulate in
// nanoseconds and convert to microseconds only when read, so a
// sub-microsecond phase (a cache probe) does not report zero. tick() and
// reset() serialize on a mutex; both run at human rates.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/phase.hpp"
#include "util/mutex.hpp"

namespace agenp::obs {

class CostCell {
public:
    // Records one call that took `elapsed_ns`. Lock-free, callable from
    // any thread.
    void observe(std::uint64_t elapsed_ns);

    [[nodiscard]] std::uint64_t calls() const {
        return calls_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t total_us() const {
        return total_ns_.load(std::memory_order_relaxed) / 1000;
    }
    // EWMA per-call cost in microseconds (0 before the first observation).
    [[nodiscard]] double ewma_us() const;
    // EWMA call frequency in Hz (0 before the first two ticks).
    [[nodiscard]] double frequency_hz() const;

private:
    friend class CostTable;
    void tick(std::uint64_t now_ns);  // single writer: the table's ticker

    std::atomic<std::uint64_t> calls_{0};
    std::atomic<std::uint64_t> total_ns_{0};
    std::atomic<std::uint64_t> ewma_ns_bits_{0};  // bit-cast double
    std::atomic<std::uint64_t> freq_hz_bits_{0};  // bit-cast double
    // Ticker-private state, written only under CostTable::tick_mu_.
    std::uint64_t last_calls_ = 0;
    std::uint64_t last_tick_ns_ = 0;
};

struct CostEntry {
    std::string check;  // the phase name
    std::uint64_t calls = 0;
    std::uint64_t total_us = 0;
    double ewma_us = 0.0;
    double frequency_hz = 0.0;
    double us_per_s = 0.0;  // ewma_us * frequency_hz: expected wall-time share
};

class CostTable {
public:
    // Smoothing factors: cost reacts per observation, frequency per tick.
    static constexpr double kCostAlpha = 0.2;
    static constexpr double kFreqAlpha = 0.3;

    CostCell& cell(PhaseId phase) { return cells_[phase_index(phase)]; }

    // Folds call-count deltas into each cell's frequency EWMA. Call about
    // once per second (serve's WindowTicker does).
    void tick();

    // One entry per phase, sorted by us_per_s descending (the scheduling
    // order), ties by name.
    [[nodiscard]] std::vector<CostEntry> snapshot() const;

    // [{"check":"asp.solve","calls":..,"ewma_us":..,"hz":..,"us_per_s":..},...]
    [[nodiscard]] std::string render_json() const;

    // Zeroes every cell.
    void reset();

private:
    util::Mutex tick_mu_;
    std::array<CostCell, kPhaseCount> cells_;
};

// The process-wide cost table obs::Phase feeds.
CostTable& costs();

}  // namespace agenp::obs
