#include "srv/cache.hpp"

#include <algorithm>
#include <bit>

#include "obs/metrics.hpp"
#include "util/strings.hpp"

namespace agenp::srv {

DecisionCache::DecisionCache(CacheOptions options) : on_insert_(std::move(options.on_insert)) {
    std::size_t shards = std::bit_ceil(options.shards == 0 ? std::size_t{1} : options.shards);
    shards_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i) shards_.push_back(std::make_unique<Shard>());
    shard_mask_ = shards - 1;
    shard_capacity_bytes_ = options.capacity_bytes / shards;
    if (shard_capacity_bytes_ == 0) shard_capacity_bytes_ = 1;
}

CacheKey DecisionCache::make_key(const cfg::TokenString& request, const asp::Program& context) {
    std::string request_text = cfg::detokenize(request);
    std::string context_text = context.to_string();
    CacheKey key;
    key.text.reserve(request_text.size() + 1 + context_text.size());
    key.text.append(request_text).append(1, '\x1f').append(context_text);
    key.hash = util::fnv1a_hash(key.text);
    return key;
}

namespace {

// The heap block malloc hands out for `n` bytes: glibc adds an 8-byte
// header and rounds up to 16, with a 32-byte minimum.
std::uint64_t heap_block(std::size_t n) {
    return std::max<std::uint64_t>(32, (n + 8 + 15) & ~std::uint64_t{15});
}

}  // namespace

std::uint64_t DecisionCache::entry_bytes(std::size_t key_size) {
    // The LRU list node (two links and the Entry), the index node (a link,
    // the key view with its list iterator, and the cached hash) with one
    // bucket slot, and the key text's block unless it fits inline.
    constexpr std::size_t kListNode = 2 * sizeof(void*) + sizeof(Entry);
    constexpr std::size_t kIndexNode =
        sizeof(void*) + sizeof(std::pair<const std::string_view, std::list<Entry>::iterator>) +
        sizeof(std::size_t);
    static const std::size_t inline_chars = std::string().capacity();
    std::uint64_t bytes = heap_block(kListNode) + heap_block(kIndexNode) + sizeof(void*);
    if (key_size > inline_chars) bytes += heap_block(key_size + 1);
    return bytes;
}

void DecisionCache::erase_entry(Shard& shard, std::list<Entry>::iterator it) {
    shard.bytes -= entry_bytes(it->text.size());
    shard.index.erase(it->text);
    shard.lru.erase(it);
}

std::optional<bool> DecisionCache::lookup(const CacheKey& key, std::uint64_t model_version) {
    Shard& shard = shard_for(key.hash);
    obs::ProfiledMutexLock lock(shard.mu);
    auto it = shard.index.find(key.text);
    if (it == shard.index.end()) {
        ++shard.misses;
        return std::nullopt;
    }
    if (it->second->version != model_version) {
        erase_entry(shard, it->second);
        ++shard.invalidations;
        ++shard.misses;
        return std::nullopt;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    ++shard.hits;
    return it->second->permitted;
}

void DecisionCache::insert(const CacheKey& key, std::uint64_t model_version, bool permitted) {
    {
        Shard& shard = shard_for(key.hash);
        obs::ProfiledMutexLock lock(shard.mu);
        if (auto it = shard.index.find(key.text); it != shard.index.end()) {
            it->second->version = model_version;
            it->second->permitted = permitted;
            shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        } else {
            shard.lru.push_front({key.text, model_version, permitted});
            shard.index.emplace(shard.lru.front().text, shard.lru.begin());
            shard.bytes += entry_bytes(key.text.size());
            ++shard.insertions;
            while (shard.bytes > shard_capacity_bytes_ && shard.lru.size() > 1) {
                erase_entry(shard, std::prev(shard.lru.end()));
                ++shard.evictions;
            }
        }
    }
    // Outside the shard lock: the WAL hook does file I/O.
    if (on_insert_) on_insert_({key.text, model_version, permitted});
}

std::vector<CacheEntry> DecisionCache::export_entries() const {
    std::vector<CacheEntry> out;
    for (const auto& shard : shards_) {
        obs::ProfiledMutexLock lock(shard->mu);
        for (const auto& entry : shard->lru) {
            out.push_back({entry.text, entry.version, entry.permitted});
        }
    }
    return out;
}

DecisionCache::RestoreCounts DecisionCache::restore_entries(const std::vector<CacheEntry>& entries) {
    RestoreCounts counts;
    for (const auto& entry : entries) {
        std::uint64_t hash = util::fnv1a_hash(entry.text);
        Shard& shard = shard_for(hash);
        obs::ProfiledMutexLock lock(shard.mu);
        if (auto it = shard.index.find(entry.text); it != shard.index.end()) {
            // Duplicate key: a WAL record replayed over its snapshot
            // entry. The later record wins; it counts as the same entry.
            it->second->version = entry.model_version;
            it->second->permitted = entry.permitted;
            continue;
        }
        // Append at the cold end so hottest-first input keeps its LRU
        // order; skip (never evict) once the shard's budget is spent —
        // the caller reports the truncation.
        std::uint64_t bytes = entry_bytes(entry.text.size());
        if (shard.bytes + bytes > shard_capacity_bytes_ && !shard.lru.empty()) {
            ++counts.skipped;
            continue;
        }
        shard.lru.push_back({entry.text, entry.model_version, entry.permitted});
        shard.index.emplace(shard.lru.back().text, std::prev(shard.lru.end()));
        shard.bytes += bytes;
        ++counts.restored;
    }
    return counts;
}

std::string_view DecisionCache::request_text_of_key(std::string_view key_text) {
    auto sep = key_text.find('\x1f');
    return sep == std::string_view::npos ? key_text : key_text.substr(0, sep);
}

void DecisionCache::clear() {
    for (auto& shard : shards_) {
        obs::ProfiledMutexLock lock(shard->mu);
        shard->index.clear();
        shard->lru.clear();
        shard->bytes = 0;
    }
}

CacheStats DecisionCache::stats() const {
    CacheStats out;
    for (const auto& shard : shards_) {
        obs::ProfiledMutexLock lock(shard->mu);
        out.hits += shard->hits;
        out.misses += shard->misses;
        out.insertions += shard->insertions;
        out.evictions += shard->evictions;
        out.invalidations += shard->invalidations;
        out.entries += shard->lru.size();
        out.bytes += shard->bytes;
    }
    return out;
}

}  // namespace agenp::srv
