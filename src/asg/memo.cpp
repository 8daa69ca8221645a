#include "asg/memo.hpp"

#include <string>
#include <utility>

#include "asg/instantiate.hpp"
#include "util/strings.hpp"

namespace agenp::asg {

namespace {

std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
}

std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 12) + (h >> 4);
    h *= 1099511628211ull;
    return h;
}

std::size_t atom_bytes(const asp::Atom& atom) {
    return sizeof(asp::Atom) + atom.args.size() * sizeof(asp::Term);
}

std::size_t fragment_bytes(const GroundedFragment& fragment) {
    std::size_t bytes = sizeof(GroundedFragment);
    for (const auto& rule : fragment.rules) {
        bytes += sizeof(asp::AtomRule);
        if (rule.head) bytes += atom_bytes(*rule.head);
        for (const auto& a : rule.pos) bytes += atom_bytes(a);
        for (const auto& a : rule.neg) bytes += atom_bytes(a);
    }
    for (const auto& a : fragment.derived) bytes += atom_bytes(a);
    return bytes;
}

bool heads_unannotated(const asp::Program& program) {
    for (const auto& rule : program.rules()) {
        if (rule.head && rule.head->annotation != asp::kUnannotated) return false;
    }
    return true;
}

// Renames a fragment-relative predicate into the namespace of child
// `index`: "p@" -> "p@index", "p@x.y" -> "p@index.x.y". Fragment atoms
// carry exactly one '@' (the mangle separator; the ASP lexer rejects '@'
// in user identifiers), so a plain find is unambiguous.
class Relocator {
public:
    explicit Relocator(int index) : suffix_("@" + std::to_string(index)) {}

    util::Symbol predicate(util::Symbol p) {
        auto it = cache_.find(p.id());
        if (it != cache_.end()) return it->second;
        std::string_view name = p.str();
        auto at = name.find('@');
        std::string out(name.substr(0, at));  // npos = whole name (defensive)
        out += suffix_;
        if (at != std::string_view::npos && at + 1 < name.size()) {
            out += '.';
            out += name.substr(at + 1);
        }
        util::Symbol s(out);
        cache_.emplace(p.id(), s);
        return s;
    }

    asp::Atom atom(const asp::Atom& a) {
        return asp::Atom(predicate(a.predicate), a.args, a.annotation);
    }

    asp::AtomRule rule(const asp::AtomRule& r) {
        asp::AtomRule out;
        if (r.head) out.head = atom(*r.head);
        out.pos.reserve(r.pos.size());
        for (const auto& a : r.pos) out.pos.push_back(atom(a));
        out.neg.reserve(r.neg.size());
        for (const auto& a : r.neg) out.neg.push_back(atom(a));
        return out;
    }

private:
    std::string suffix_;
    std::unordered_map<std::uint32_t, util::Symbol> cache_;
};

void intern_rule(asp::GroundProgram& program, const asp::AtomRule& rule) {
    asp::GroundRule ground_rule;
    if (rule.head) ground_rule.head = program.intern(*rule.head);
    ground_rule.pos.reserve(rule.pos.size());
    for (const auto& a : rule.pos) ground_rule.pos.push_back(program.intern(a));
    ground_rule.neg.reserve(rule.neg.size());
    for (const auto& a : rule.neg) ground_rule.neg.push_back(program.intern(a));
    program.add_rule(std::move(ground_rule));
}

}  // namespace

GroundingMemo::GroundingMemo(MemoOptions options) {
    std::size_t shard_count = round_up_pow2(options.shards == 0 ? 1 : options.shards);
    shards_.reserve(shard_count);
    for (std::size_t i = 0; i < shard_count; ++i) shards_.push_back(std::make_unique<Shard>());
    shard_mask_ = shard_count - 1;
    shard_capacity_ = options.capacity_bytes / shard_count;
    if (shard_capacity_ == 0) shard_capacity_ = 1;
}

bool GroundingMemo::memoizable(const AnswerSetGrammar& grammar, const asp::Program& context) {
    if (!heads_unannotated(context)) return false;
    for (std::size_t p = 0; p < grammar.production_count(); ++p) {
        if (!heads_unannotated(grammar.annotation(static_cast<int>(p)))) return false;
    }
    return true;
}

void GroundingMemo::note_gate_fallback() {
    gate_fallbacks_.fetch_add(1, std::memory_order_relaxed);
}

void GroundingMemo::record(std::uint64_t hits, std::uint64_t misses, std::uint64_t sat_hits) {
    hits_.fetch_add(hits, std::memory_order_relaxed);
    misses_.fetch_add(misses, std::memory_order_relaxed);
    sat_hits_.fetch_add(sat_hits, std::memory_order_relaxed);
}

MemoStats GroundingMemo::stats() const {
    MemoStats out;
    for (const auto& shard : shards_) {
        obs::ProfiledMutexLock lock(shard->mu);
        out.insertions += shard->insertions;
        out.evictions += shard->evictions;
        out.invalidations += shard->invalidations;
        out.entries += shard->lru.size();
        out.bytes += shard->bytes;
    }
    out.hits = hits_.load(std::memory_order_relaxed);
    out.misses = misses_.load(std::memory_order_relaxed);
    out.sat_hits = sat_hits_.load(std::memory_order_relaxed);
    out.gate_fallbacks = gate_fallbacks_.load(std::memory_order_relaxed);
    return out;
}

void GroundingMemo::clear() {
    for (auto& shard : shards_) {
        obs::ProfiledMutexLock lock(shard->mu);
        shard->lru.clear();
        shard->index.clear();
        shard->bytes = 0;
    }
}

std::list<GroundingMemo::Entry>::iterator GroundingMemo::find_live(Shard& shard, const Key& key) {
    auto it = shard.index.find(key.hash);
    if (it == shard.index.end()) return shard.lru.end();
    auto entry = it->second;
    if (entry->epoch != epoch()) {
        ++shard.invalidations;
        erase_entry(shard, entry);
        return shard.lru.end();
    }
    if (entry->key.context_lo != key.context_lo || entry->key.context_hi != key.context_hi ||
        entry->key.shape != key.shape) {
        return shard.lru.end();  // 64-bit hash collision: treat as absent
    }
    return entry;
}

void GroundingMemo::erase_entry(Shard& shard, std::list<Entry>::iterator it) {
    shard.bytes -= it->bytes;
    shard.index.erase(it->key.hash);
    shard.lru.erase(it);
}

void GroundingMemo::put(Shard& shard, const Key& key,
                        std::shared_ptr<const GroundedFragment> fragment, int verdict) {
    auto existing = shard.index.find(key.hash);
    if (existing != shard.index.end()) erase_entry(shard, existing->second);
    Entry entry;
    entry.key = key;
    entry.epoch = epoch();
    entry.bytes = (fragment ? fragment->bytes : 0) + key.shape.size() * sizeof(int) + sizeof(Entry);
    entry.fragment = std::move(fragment);
    entry.verdict = verdict;
    shard.lru.push_front(std::move(entry));
    shard.index.emplace(key.hash, shard.lru.begin());
    shard.bytes += shard.lru.front().bytes;
    ++shard.insertions;
    evict_over_budget(shard);
}

void GroundingMemo::evict_over_budget(Shard& shard) {
    while (shard.bytes > shard_capacity_ && !shard.lru.empty()) {
        ++shard.evictions;
        erase_entry(shard, std::prev(shard.lru.end()));
    }
}

GroundingMemo::Probe GroundingMemo::probe(const Key& key) {
    Shard& shard = shard_for(key.hash);
    obs::ProfiledMutexLock lock(shard.mu);
    auto it = find_live(shard, key);
    if (it == shard.lru.end()) return {};
    shard.lru.splice(shard.lru.begin(), shard.lru, it);  // touch
    return {it->fragment, it->verdict};
}

void GroundingMemo::insert(const Key& key, std::shared_ptr<const GroundedFragment> fragment) {
    Shard& shard = shard_for(key.hash);
    obs::ProfiledMutexLock lock(shard.mu);
    auto it = find_live(shard, key);
    put(shard, key, std::move(fragment), it == shard.lru.end() ? -1 : it->verdict);
}

void GroundingMemo::attach_verdict(const Key& key, bool satisfiable) {
    Shard& shard = shard_for(key.hash);
    obs::ProfiledMutexLock lock(shard.mu);
    auto it = find_live(shard, key);
    if (it == shard.lru.end()) {
        put(shard, key, nullptr, satisfiable ? 1 : 0);
    } else {
        it->verdict = satisfiable ? 1 : 0;
    }
}

MemoizedGrounding::MemoizedGrounding(GroundingMemo* memo, const AnswerSetGrammar& grammar,
                                     const asp::Program& context,
                                     const asp::GroundingLimits& limits)
    : memo_(memo), grammar_(grammar), context_(context), limits_(limits) {
    if (memo_ == nullptr) return;
    if (!GroundingMemo::memoizable(grammar_, context_)) {
        memo_->note_gate_fallback();
        return;
    }
    usable_ = true;
    // 128-bit context fingerprint: a structural fold over Rule::hash plus
    // an independent FNV over the printed rules. Entries also compare both
    // halves, so a wrong fragment needs a simultaneous 128-bit collision.
    context_lo_ = 1469598103934665603ull;
    context_hi_ = 0x517cc1b727220a95ull;
    for (const auto& rule : context_.rules()) {
        context_lo_ = mix64(context_lo_, rule.hash());
        context_hi_ = mix64(context_hi_, util::fnv1a_hash(rule.to_string()));
    }
}

MemoizedGrounding::~MemoizedGrounding() {
    if (local_hits_ == 0 && local_misses_ == 0) return;  // sat hits are hits
    memo_->record(local_hits_, local_misses_, local_sat_hits_);
}

GroundingMemo::Key MemoizedGrounding::make_key(const cfg::ParseNode& node) const {
    GroundingMemo::Key key;
    key.context_lo = context_lo_;
    key.context_hi = context_hi_;
    cfg::subtree_shape(node, key.shape);
    key.hash = mix64(mix64(cfg::subtree_hash(node), context_lo_), context_hi_);
    return key;
}

template <typename Emit>
std::vector<asp::Atom> MemoizedGrounding::compose(const cfg::ParseNode& node, Emit&& emit) {
    std::vector<asp::Atom> derived;
    std::size_t rules = 0;

    // Children first: relocate their rules and derived atoms into this
    // node's namespace (child i lives under "@i"). Leaves contribute
    // nothing — their effect is already folded into `node.production`.
    for (std::size_t i = 0; i < node.children.size(); ++i) {
        const cfg::ParseNode& child = node.children[i];
        if (child.is_leaf()) continue;
        auto child_fragment = ground_fragment(child);
        Relocator reloc(static_cast<int>(i) + 1);
        for (const auto& rule : child_fragment->rules) emit(reloc.rule(rule));
        for (const auto& a : child_fragment->derived) derived.push_back(reloc.atom(a));
        rules += child_fragment->rules.size();
    }

    // This node's own contribution: its production's annotation plus the
    // context, renamed to the local namespace and grounded against the
    // children's derived atoms.
    asp::Program local;
    const asp::Program& annotation = grammar_.annotation(node.production);
    local.rules().reserve(annotation.size() + context_.size());
    for (const auto& rule : annotation.rules()) local.add(rename_rule_at(rule, {}));
    for (const auto& rule : context_.rules()) local.add(rename_rule_at(rule, {}));
    asp::SeededGrounding seeded = asp::ground_seeded(local, derived, limits_);
    rules += seeded.rules.size();
    for (auto& rule : seeded.rules) emit(std::move(rule));
    for (auto& a : seeded.new_atoms) derived.push_back(std::move(a));

    // The per-call groundings each respect `limits_`; also bound the
    // composed totals so a fragment explosion surfaces the same way the
    // monolithic path would.
    if (rules > limits_.max_rules) {
        throw asp::GroundingError("grounding exceeded max_rules limit");
    }
    if (derived.size() > limits_.max_atoms) {
        throw asp::GroundingError("grounding exceeded max_atoms limit");
    }
    return derived;
}

std::shared_ptr<const GroundedFragment> MemoizedGrounding::ground_fragment(
    const cfg::ParseNode& node) {
    GroundingMemo::Key key = make_key(node);
    if (auto hit = memo_->probe(key).fragment) {
        ++local_hits_;
        return hit;
    }
    ++local_misses_;  // also when only a root verdict is stored under `key`
    auto fragment = std::make_shared<GroundedFragment>();
    fragment->derived =
        compose(node, [&](asp::AtomRule&& rule) { fragment->rules.push_back(std::move(rule)); });
    fragment->bytes = fragment_bytes(*fragment);
    memo_->insert(key, fragment);
    return fragment;
}

MemoizedGrounding::Root MemoizedGrounding::ground_root(const cfg::ParseNode& tree) {
    Root out;
    out.key = make_key(tree);
    int verdict = memo_->probe(out.key).verdict;
    if (verdict >= 0) {
        ++local_hits_;
        ++local_sat_hits_;
        out.verdict = verdict == 1;
        return out;
    }
    ++local_misses_;
    // At the parse root the fragment-relative names are absolute, so the
    // composed rules intern straight into the solver program.
    out.program = std::make_unique<asp::GroundProgram>();
    compose(tree, [&](asp::AtomRule&& rule) { intern_rule(*out.program, rule); });
    return out;
}

void MemoizedGrounding::store_verdict(const Root& root, bool satisfiable) {
    memo_->attach_verdict(root.key, satisfiable);
}

}  // namespace agenp::asg
