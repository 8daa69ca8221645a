#include "obs/lockprof.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "obs/metrics.hpp"
#include "util/mutex.hpp"

namespace agenp::obs {

namespace {

std::atomic<bool> g_lock_profiling_enabled{true};

// Order checking is a debugging aid: on by default only when asserts
// are, so release servers never pay for it unless asked.
std::atomic<bool> g_lock_order_checking{
#ifdef NDEBUG
    false
#else
    true
#endif
};

// The global lock hierarchy (DESIGN.md section 12). Acquisition order
// must be strictly increasing in rank within a thread. Names not listed
// here are unranked (exempt).
struct LockRankEntry {
    std::string_view name;
    int rank;
};
constexpr LockRankEntry kLockRanks[] = {
    {"srv.model", 10},       // DecisionService state_mu_ (shared: decide, excl: update)
    {"srv.cache_shard", 20},  // DecisionCache shard locks, taken under srv.model
    {"asg.memo", 25},         // grounding-memo shards, taken under srv.model; never
                              // nested with srv.cache_shard (probe vs decide paths)
    {"srv.audit", 40},        // audit log rotation/append
    {"srv.conn.outbox", 50},  // per-connection worker->loop handoff
    {"symbol.intern", 60},    // intern shards; interning happens under srv.model
};

// Per-thread stack of held ranked locks. Depth is tiny (the hierarchy is
// six names and nesting never exceeds three); a fixed array keeps the
// bookkeeping allocation-free.
struct HeldLock {
    const void* mu;
    int rank;
    const char* name;
};
constexpr int kMaxHeld = 16;
thread_local HeldLock t_held[kMaxHeld];
thread_local int t_held_count = 0;

std::string format_double(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f", v);
    return buf;
}

}  // namespace

bool lock_profiling_enabled() {
    return g_lock_profiling_enabled.load(std::memory_order_relaxed);
}

void set_lock_profiling_enabled(bool enabled) {
    g_lock_profiling_enabled.store(enabled, std::memory_order_relaxed);
}

bool lock_order_checking_enabled() {
    return g_lock_order_checking.load(std::memory_order_relaxed);
}

void set_lock_order_checking(bool enabled) {
    g_lock_order_checking.store(enabled, std::memory_order_relaxed);
}

LockRank lock_rank_of(std::string_view name) {
    for (const auto& entry : kLockRanks) {
        if (entry.name == name) return {entry.rank, entry.name.data()};
    }
    return {};
}

namespace detail {

void lock_order_acquire(const void* mu, const LockRank& rank, bool enforce) {
    if (enforce) {
        for (int i = 0; i < t_held_count; ++i) {
            if (t_held[i].rank >= rank.rank) {
                // Report before blocking: under another interleaving this
                // acquisition order is a deadlock, so treat it like a
                // failed assert.
                std::fprintf(stderr,
                             "agenp: lock-order inversion: acquiring \"%s\" (rank %d) while "
                             "holding \"%s\" (rank %d); the global hierarchy (DESIGN.md "
                             "section 12) requires strictly increasing ranks\n",
                             rank.name, rank.rank, t_held[i].name, t_held[i].rank);
                std::abort();
            }
        }
    }
    if (t_held_count < kMaxHeld) {
        t_held[t_held_count++] = {mu, rank.rank, rank.name};
    }
}

void lock_order_release(const void* mu) {
    // Last-in search: releases are almost always LIFO, and a no-match
    // scan (entries recorded before a toggle, or none at all) is a
    // handful of compares.
    for (int i = t_held_count - 1; i >= 0; --i) {
        if (t_held[i].mu == mu) {
            for (int j = i; j + 1 < t_held_count; ++j) t_held[j] = t_held[j + 1];
            --t_held_count;
            return;
        }
    }
}

}  // namespace detail

struct LockRegistry::Impl {
    mutable util::Mutex mutex;
    // std::map keeps node (and thus reference) stability on insert.
    std::map<std::string, LockStats, std::less<>> stats GUARDED_BY(mutex);
};

LockRegistry::LockRegistry() : impl_(new Impl) {}
LockRegistry::~LockRegistry() { delete impl_; }

LockStats& LockRegistry::get(std::string_view name) {
    // Lock names surface as `lock` label values in the metrics exposition;
    // keep them to the registry naming grammar so exporters never escape.
    assert(valid_metric_name(name));
    util::MutexLock lock(impl_->mutex);
    auto it = impl_->stats.find(name);
    if (it == impl_->stats.end()) {
        it = impl_->stats.try_emplace(std::string(name)).first;
    }
    return it->second;
}

std::vector<LockStatsSnapshot> LockRegistry::snapshot() const {
    util::MutexLock lock(impl_->mutex);
    std::vector<LockStatsSnapshot> out;
    out.reserve(impl_->stats.size());
    for (const auto& [name, s] : impl_->stats) {
        LockStatsSnapshot snap;
        snap.name = name;
        snap.acquisitions = s.acquisitions();
        snap.contentions = s.contentions();
        snap.wait_us = s.wait_us();
        out.push_back(std::move(snap));
    }
    return out;
}

std::string LockRegistry::render_json() const {
    auto snaps = snapshot();
    std::string out = "{";
    bool first = true;
    for (const auto& s : snaps) {
        if (!first) out += ",";
        out += "\"" + json_escape(s.name) + "\":{";
        out += "\"acquisitions\":" + std::to_string(s.acquisitions);
        out += ",\"contentions\":" + std::to_string(s.contentions);
        out += ",\"wait_us_total\":" + std::to_string(s.wait_us.sum);
        out += ",\"wait_us_p50\":" + format_double(s.wait_us.quantile(0.5));
        out += ",\"wait_us_p99\":" + format_double(s.wait_us.quantile(0.99));
        out += ",\"wait_us_max\":" + std::to_string(s.wait_us.max);
        out += "}";
        first = false;
    }
    out += "}";
    return out;
}

std::string LockRegistry::render_text() const {
    auto snaps = snapshot();
    std::sort(snaps.begin(), snaps.end(), [](const LockStatsSnapshot& a, const LockStatsSnapshot& b) {
        return a.wait_us.sum > b.wait_us.sum;
    });
    std::size_t width = 4;
    for (const auto& s : snaps) width = std::max(width, s.name.size());
    std::string out = "lock" + std::string(width - 4 + 2, ' ') +
                      "    acquires    contended      wait_us  wait_p99_us\n";
    for (const auto& s : snaps) {
        char buf[128];
        std::snprintf(buf, sizeof(buf), "%12llu %12llu %12llu %12.1f\n",
                      static_cast<unsigned long long>(s.acquisitions),
                      static_cast<unsigned long long>(s.contentions),
                      static_cast<unsigned long long>(s.wait_us.sum), s.wait_us.quantile(0.99));
        out += s.name + std::string(width - s.name.size() + 2, ' ') + buf;
    }
    return out;
}

void LockRegistry::reset() {
    util::MutexLock lock(impl_->mutex);
    for (auto& [_, s] : impl_->stats) s.reset();
}

LockRegistry& locks() {
    // Intentionally leaked: the symbol intern table locks through this
    // registry and may run during static destruction.
    static LockRegistry* registry = new LockRegistry;
    return *registry;
}

}  // namespace agenp::obs
