// Sharded, versioned LRU cache for PDP decisions (DESIGN.md section 8).
//
// A decision is a pure function of (request tokens, context program, GPM
// model version), so the cache key hashes the first two and every entry is
// stamped with the third. Lookups pass the version currently in force:
// entries stamped by a superseded model miss and are evicted lazily, which
// means adopting a new GPM (PAdaP adoption or a coalition share) needs no
// global flush — stale entries age out as they are touched or evicted.
//
// The cache lives and dies with its process: it starts empty and is never
// persisted (DESIGN.md §11). A version stamp orders the models of one
// process only; it does not name a model across a restart.
//
// Concurrency: the key space is split across N shards (N rounded up to a
// power of two), each guarded by its own mutex, so threads hammering
// different requests rarely contend. Entries store the full key text and
// compare it on lookup; a 64-bit hash collision therefore costs a miss,
// never a wrong decision.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "asp/program.hpp"
#include "cfg/grammar.hpp"
#include "obs/lockprof.hpp"
#include "util/thread_annotations.hpp"

namespace agenp::srv {

struct CacheOptions {
    std::size_t capacity_bytes = 64ull << 20;  // total across shards
    std::size_t shards = 16;                   // rounded up to a power of two
};

struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;       // LRU capacity evictions
    std::uint64_t invalidations = 0;   // stale-version lazy evictions
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;

    [[nodiscard]] double hit_rate() const {
        auto total = hits + misses;
        return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
};

// Precomputed key: callers hash once and reuse it for the lookup and the
// insert that follows a miss. `hash` is util::fnv1a_hash(text), as
// make_key computes it; the cache hashes an entry's text again only to
// evict it.
struct CacheKey {
    std::uint64_t hash = 0;
    std::string text;  // request tokens + '\x1f' + context program
};

class DecisionCache {
public:
    explicit DecisionCache(CacheOptions options = {});

    [[nodiscard]] static CacheKey make_key(const cfg::TokenString& request,
                                           const asp::Program& context);

    // The cached verdict, or nullopt on miss. A hit refreshes LRU order; a
    // version mismatch evicts the stale entry and counts as a miss.
    [[nodiscard]] std::optional<bool> lookup(const CacheKey& key, std::uint64_t model_version);

    void insert(const CacheKey& key, std::uint64_t model_version, bool permitted);

    void clear();

    [[nodiscard]] CacheStats stats() const;
    [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

private:
    struct Entry {
        std::string text;
        std::uint64_t stamp = 0;  // model version << 1 | permitted

        [[nodiscard]] std::uint64_t version() const { return stamp >> 1; }
        [[nodiscard]] bool permitted() const { return (stamp & 1) != 0; }
    };
    static std::uint64_t stamp(std::uint64_t model_version, bool permitted) {
        return model_version << 1 | static_cast<std::uint64_t>(permitted);
    }
    struct Shard {
        // All shard locks report aggregate contention as "srv.cache_shard".
        obs::ProfiledMutex mu{"srv.cache_shard"};
        std::list<Entry> lru GUARDED_BY(mu);  // front = most recently used
        // Keyed on CacheKey::hash; a probe compares the entry's text, so a
        // collision reads as a miss, and of two keys with one hash only the
        // later inserted is kept.
        std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index GUARDED_BY(mu);
        std::uint64_t bytes GUARDED_BY(mu) = 0;
        std::uint64_t hits GUARDED_BY(mu) = 0;
        std::uint64_t misses GUARDED_BY(mu) = 0;
        std::uint64_t insertions GUARDED_BY(mu) = 0;
        std::uint64_t evictions GUARDED_BY(mu) = 0;
        std::uint64_t invalidations GUARDED_BY(mu) = 0;
    };

    Shard& shard_for(std::uint64_t hash) { return *shards_[hash & shard_mask_]; }
    void erase_entry(Shard& shard, std::uint64_t hash, std::list<Entry>::iterator it) REQUIRES(shard.mu);
    // What one entry with a key of `key_size` chars costs the heap: the
    // budget and stats().bytes count this.
    static std::uint64_t entry_bytes(std::size_t key_size);

    std::vector<std::unique_ptr<Shard>> shards_;
    std::uint64_t shard_mask_ = 0;
    std::size_t shard_capacity_bytes_ = 0;
};

}  // namespace agenp::srv
