#include "srv/cache.hpp"

#include <algorithm>
#include <bit>

#include "obs/metrics.hpp"
#include "util/strings.hpp"

namespace agenp::srv {

DecisionCache::DecisionCache(CacheOptions options) {
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
    // The LRU list node (two links and the Entry), the index node (a link
    // and the hash with its list iterator; libstdc++ caches no hash code
    // for an integer key) with one bucket slot, and the key text's block
    // unless it fits inline.
    constexpr std::size_t kListNode = 2 * sizeof(void*) + sizeof(Entry);
    constexpr std::size_t kIndexNode =
        sizeof(void*) + sizeof(std::pair<const std::uint64_t, std::list<Entry>::iterator>);
    static const std::size_t inline_chars = std::string().capacity();
    std::uint64_t bytes = heap_block(kListNode) + heap_block(kIndexNode) + sizeof(void*);
    if (key_size > inline_chars) bytes += heap_block(key_size + 1);
    return bytes;
}

void DecisionCache::erase_entry(Shard& shard, std::uint64_t hash, std::list<Entry>::iterator it) {
    shard.bytes -= entry_bytes(it->text.size());
    shard.index.erase(hash);
    shard.lru.erase(it);
}

std::optional<bool> DecisionCache::lookup(const CacheKey& key, std::uint64_t model_version) {
    Shard& shard = shard_for(key.hash);
    obs::ProfiledMutexLock lock(shard.mu);
    auto it = shard.index.find(key.hash);
    if (it == shard.index.end() || it->second->text != key.text) {
        ++shard.misses;
        return std::nullopt;
    }
    if (it->second->version() != model_version) {
        erase_entry(shard, key.hash, it->second);
        ++shard.invalidations;
        ++shard.misses;
        return std::nullopt;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    ++shard.hits;
    return it->second->permitted();
}

void DecisionCache::insert(const CacheKey& key, std::uint64_t model_version, bool permitted) {
    Shard& shard = shard_for(key.hash);
    obs::ProfiledMutexLock lock(shard.mu);
    if (auto it = shard.index.find(key.hash); it != shard.index.end()) {
        if (it->second->text == key.text) {
            it->second->stamp = stamp(model_version, permitted);
            shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
            return;
        }
        erase_entry(shard, key.hash, it->second);  // a collision: the later key replaces it
    }
    shard.bytes += entry_bytes(key.text.size());
    shard.lru.push_front({key.text, stamp(model_version, permitted)});
    shard.index.emplace(key.hash, shard.lru.begin());
    ++shard.insertions;
    while (shard.bytes > shard_capacity_bytes_ && shard.lru.size() > 1) {
        auto coldest = std::prev(shard.lru.end());
        erase_entry(shard, util::fnv1a_hash(coldest->text), coldest);
        ++shard.evictions;
    }
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
