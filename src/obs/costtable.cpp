#include "obs/costtable.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace agenp::obs {
namespace {

double load_double(const std::atomic<std::uint64_t>& bits) {
    return std::bit_cast<double>(bits.load(std::memory_order_relaxed));
}

void store_double(std::atomic<std::uint64_t>& bits, double value) {
    bits.store(std::bit_cast<std::uint64_t>(value), std::memory_order_relaxed);
}

}  // namespace

void CostCell::observe(std::uint64_t elapsed_ns) {
    bool first = calls_.fetch_add(1, std::memory_order_relaxed) == 0;
    total_ns_.fetch_add(elapsed_ns, std::memory_order_relaxed);
    auto sample = static_cast<double>(elapsed_ns);
    std::uint64_t prev = ewma_ns_bits_.load(std::memory_order_relaxed);
    for (;;) {
        double next = first && prev == 0
                          ? sample
                          : CostTable::kCostAlpha * sample +
                                (1.0 - CostTable::kCostAlpha) * std::bit_cast<double>(prev);
        if (ewma_ns_bits_.compare_exchange_weak(prev, std::bit_cast<std::uint64_t>(next),
                                                std::memory_order_relaxed)) {
            break;
        }
        first = false;  // someone else published a value meanwhile
    }
}

double CostCell::ewma_us() const { return load_double(ewma_ns_bits_) / 1000.0; }

double CostCell::frequency_hz() const { return load_double(freq_hz_bits_); }

void CostCell::tick(std::uint64_t now_ns) {
    std::uint64_t calls = calls_.load(std::memory_order_relaxed);
    if (last_tick_ns_ != 0 && now_ns > last_tick_ns_) {
        double dt = static_cast<double>(now_ns - last_tick_ns_) / 1e9;
        double instant = static_cast<double>(calls - last_calls_) / dt;
        double prev = frequency_hz();
        double next = freq_hz_bits_.load(std::memory_order_relaxed) == 0
                          ? instant
                          : CostTable::kFreqAlpha * instant +
                                (1.0 - CostTable::kFreqAlpha) * prev;
        store_double(freq_hz_bits_, next);
    }
    last_calls_ = calls;
    last_tick_ns_ = now_ns;
}

void CostTable::tick() {
    std::uint64_t now = monotonic_ns();
    util::MutexLock lock(tick_mu_);
    for (CostCell& cell : cells_) cell.tick(now);
}

std::vector<CostEntry> CostTable::snapshot() const {
    std::vector<CostEntry> entries;
    entries.reserve(kPhaseCount);
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
        const CostCell& cell = cells_[i];
        CostEntry entry;
        entry.check = std::string(kPhaseNames[i]);
        entry.calls = cell.calls();
        entry.total_us = cell.total_us();
        entry.ewma_us = cell.ewma_us();
        entry.frequency_hz = cell.frequency_hz();
        entry.us_per_s = entry.ewma_us * entry.frequency_hz;
        entries.push_back(std::move(entry));
    }
    std::sort(entries.begin(), entries.end(), [](const CostEntry& a, const CostEntry& b) {
        return a.us_per_s != b.us_per_s ? a.us_per_s > b.us_per_s : a.check < b.check;
    });
    return entries;
}

std::string CostTable::render_json() const {
    std::string out = "[";
    char buf[128];
    bool first = true;
    for (const CostEntry& entry : snapshot()) {
        if (!first) out += ',';
        first = false;
        out += "{\"check\":\"" + entry.check + "\"";
        out += ",\"calls\":" + std::to_string(entry.calls);
        out += ",\"total_us\":" + std::to_string(entry.total_us);
        std::snprintf(buf, sizeof(buf), ",\"ewma_us\":%.2f,\"hz\":%.3f,\"us_per_s\":%.2f}",
                      entry.ewma_us, entry.frequency_hz, entry.us_per_s);
        out += buf;
    }
    out += "]";
    return out;
}

void CostTable::reset() {
    util::MutexLock lock(tick_mu_);
    for (CostCell& cell : cells_) {
        cell.calls_.store(0, std::memory_order_relaxed);
        cell.total_ns_.store(0, std::memory_order_relaxed);
        cell.ewma_ns_bits_.store(0, std::memory_order_relaxed);
        cell.freq_hz_bits_.store(0, std::memory_order_relaxed);
        cell.last_calls_ = 0;
        cell.last_tick_ns_ = 0;
    }
}

CostTable& costs() {
    static CostTable table;
    return table;
}

}  // namespace agenp::obs
