// Sub-program memo for G[PT] grounding (DESIGN.md §13).
//
// The membership check re-grounds G[PT] from scratch for every parse tree.
// But the instantiated fragment below a parse node is fully determined by
// (a) the productions applied in that subtree and (b) the context program
// contributed at every node — token spellings only reach the annotation
// through the production choice. This memo keys grounded fragments by
// `cfg::subtree_hash` ⧺ a context fingerprint, so repeated grammar
// fragments across requests (and across parse positions) ground once.
// A parse root is composed from its children's fragments straight into the
// solver program and keeps only its decisive verdict: a whole root recurs
// only as a repeated request, which a verdict alone answers.
//
// Soundness gate: compositional grounding is only valid when no annotation
// or context rule has an annotated HEAD — an annotated head lets a parent
// derive atoms into a child's namespace, which the child's fragment was
// grounded without. `memoizable()` checks this; callers fall back to the
// plain path (and count a gate fallback) when it fails. Annotated body
// atoms are fine: they only *read* child namespaces, and composition seeds
// each local grounding with the children's derived atoms.
//
// Entries are model-version-stamped like the decision cache: the owning
// DecisionService bumps `set_epoch` under its model write lock and stale
// entries are erased lazily on probe. Shards use a ProfiledMutex named
// "asg.memo" (rank 25 in the §12 hierarchy); all grounding, relocation and
// interning happens outside the shard locks.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "asg/asg.hpp"
#include "asp/grounder.hpp"
#include "cfg/earley.hpp"
#include "obs/lockprof.hpp"
#include "util/thread_annotations.hpp"

namespace agenp::asg {

// A grounded G[PT] fragment with predicate namespaces relative to its own
// subtree root: "p@" is the subtree root, "p@1.2" a grandchild. For the
// parse root these relative names coincide with the absolute names that
// `instantiate` produces, so a root composes directly into the solver
// program.
struct GroundedFragment {
    std::vector<asp::AtomRule> rules;
    std::vector<asp::Atom> derived;  // every derivable atom, relative names
    std::size_t bytes = 0;           // budget estimate
};

struct MemoStats {
    std::uint64_t hits = 0;    // fragments served + roots answered by a verdict
    std::uint64_t misses = 0;  // fragments grounded + roots composed
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;  // stale-epoch entries erased on probe
    std::uint64_t sat_hits = 0;       // memoized solver verdicts served
    std::uint64_t gate_fallbacks = 0; // queries where memoizable() said no
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;
};

struct MemoOptions {
    std::size_t capacity_bytes = 32ull * 1024 * 1024;
    std::size_t shards = 8;  // rounded up to a power of two
};

class GroundingMemo {
public:
    explicit GroundingMemo(MemoOptions options = {});

    // Model-version stamp. Entries inserted under a different epoch are
    // invalid; they miss and are erased lazily on probe.
    void set_epoch(std::uint64_t epoch) { epoch_.store(epoch, std::memory_order_release); }
    [[nodiscard]] std::uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

    [[nodiscard]] MemoStats stats() const;
    void clear();
    void note_gate_fallback();

    // The soundness gate (see the header comment).
    static bool memoizable(const AnswerSetGrammar& grammar, const asp::Program& context);

    struct Key {
        std::uint64_t hash = 0;        // subtree hash ⧺ context fingerprint
        std::uint64_t context_lo = 0;  // 128-bit context fingerprint
        std::uint64_t context_hi = 0;
        std::vector<int> shape;        // exact preorder production shape
    };

    struct Probe {
        std::shared_ptr<const GroundedFragment> fragment;  // null: none stored
        int verdict = -1;  // -1 unknown, 0 unsatisfiable, 1 satisfiable
    };

    // Looks `key` up and marks it recently used. Counts nothing: the caller
    // knows whether it wanted the fragment or the verdict (see `record`).
    Probe probe(const Key& key);
    // Stores a subtree's fragment, keeping any verdict already under `key`
    // (in a recursive grammar one query's root is the next one's child).
    void insert(const Key& key, std::shared_ptr<const GroundedFragment> fragment);
    // Stores a parse root's decisive solve verdict. Without an entry for
    // `key` it inserts a verdict-only one, charged its shape plus the entry
    // overhead.
    void attach_verdict(const Key& key, bool satisfiable);
    // Adds one query's probe outcomes to the stats.
    void record(std::uint64_t hits, std::uint64_t misses, std::uint64_t sat_hits);

private:
    struct Entry {
        Key key;
        std::uint64_t epoch = 0;
        std::size_t bytes = 0;
        std::shared_ptr<const GroundedFragment> fragment;  // null: verdict only
        int verdict = -1;
    };

    struct Shard {
        mutable obs::ProfiledMutex mu{"asg.memo"};
        std::list<Entry> lru GUARDED_BY(mu);  // front = most recent
        std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index GUARDED_BY(mu);
        std::size_t bytes GUARDED_BY(mu) = 0;
        std::uint64_t insertions GUARDED_BY(mu) = 0;
        std::uint64_t evictions GUARDED_BY(mu) = 0;
        std::uint64_t invalidations GUARDED_BY(mu) = 0;
    };

    Shard& shard_for(std::uint64_t hash) { return *shards_[hash & shard_mask_]; }
    // Finds the live entry for `key` under the current epoch, erasing it
    // when stale (counted as an invalidation). end() when absent.
    std::list<Entry>::iterator find_live(Shard& shard, const Key& key) REQUIRES(shard.mu);
    void erase_entry(Shard& shard, std::list<Entry>::iterator it) REQUIRES(shard.mu);
    // Inserts a fresh entry for `key`, replacing whatever holds its hash.
    void put(Shard& shard, const Key& key, std::shared_ptr<const GroundedFragment> fragment,
             int verdict) REQUIRES(shard.mu);
    void evict_over_budget(Shard& shard) REQUIRES(shard.mu);

    std::vector<std::unique_ptr<Shard>> shards_;
    std::uint64_t shard_mask_ = 0;
    std::size_t shard_capacity_ = 0;
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> sat_hits_{0};
    std::atomic<std::uint64_t> gate_fallbacks_{0};
};

// One membership query's view of the memo: computes the gate and the
// context fingerprint once, then serves composed root programs and cached
// verdicts per parse tree. Counts hits/misses locally and flushes them to
// the memo's stats and the obs metrics registry on destruction (one flush
// per query).
class MemoizedGrounding {
public:
    MemoizedGrounding(GroundingMemo* memo, const AnswerSetGrammar& grammar,
                      const asp::Program& context, const asp::GroundingLimits& limits);
    ~MemoizedGrounding();

    MemoizedGrounding(const MemoizedGrounding&) = delete;
    MemoizedGrounding& operator=(const MemoizedGrounding&) = delete;

    // False when there is no memo or the gate rejected this grammar +
    // context; callers must then ground the plain way.
    [[nodiscard]] bool usable() const { return usable_; }

    struct Root {
        GroundingMemo::Key key;
        // The composed, interned G[PT] — null when `verdict` already
        // answers the query. Owned by the caller; the memo keeps none.
        std::unique_ptr<asp::GroundProgram> program;
        std::optional<bool> verdict;  // memoized decisive solve result
    };

    // Grounds (or recalls) the full tree. Throws asp::GroundingError on
    // blown limits, like the plain path.
    Root ground_root(const cfg::ParseNode& tree);

    // Records a decisive solver verdict for a root previously returned by
    // ground_root. Never call with a resource-limited (exhausted) result.
    void store_verdict(const Root& root, bool satisfiable);

private:
    GroundingMemo::Key make_key(const cfg::ParseNode& node) const;
    std::shared_ptr<const GroundedFragment> ground_fragment(const cfg::ParseNode& node);
    // Grounds `node`'s G[PT] from its children's memoized fragments and its
    // own annotation + context, handing every rule to `emit`; returns every
    // derivable atom. Throws asp::GroundingError on blown limits.
    template <typename Emit>
    std::vector<asp::Atom> compose(const cfg::ParseNode& node, Emit&& emit);

    GroundingMemo* memo_;
    const AnswerSetGrammar& grammar_;
    const asp::Program& context_;
    asp::GroundingLimits limits_;
    bool usable_ = false;
    std::uint64_t context_lo_ = 0;
    std::uint64_t context_hi_ = 0;
    std::uint64_t local_hits_ = 0;
    std::uint64_t local_misses_ = 0;
    std::uint64_t local_sat_hits_ = 0;
};

}  // namespace agenp::asg
