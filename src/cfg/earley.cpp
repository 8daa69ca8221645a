#include "cfg/earley.hpp"

#include <algorithm>
#include <array>
#include <span>

#include "obs/metrics.hpp"
#include "obs/phase.hpp"

namespace agenp::cfg {

TokenString ParseNode::yield() const {
    if (is_leaf()) return {sym.name};
    TokenString out;
    for (const auto& c : children) {
        auto sub = c.yield();
        out.insert(out.end(), sub.begin(), sub.end());
    }
    return out;
}

std::string ParseNode::to_string() const {
    if (is_leaf()) return std::string(sym.name.str());
    std::string out = "(" + std::string(sym.name.str());
    for (const auto& c : children) out += " " + c.to_string();
    out += ")";
    return out;
}

namespace {

// Open addressing with linear probing over four-int keys, for the chart's
// items and the tree builder's spans: one parse allocates a few flat arrays
// instead of one tree node per item and per memoized subtree.
class FlatIndex {
public:
    using Key = std::array<std::int32_t, 4>;

    // The value under `key`, after inserting `value` there if the key was
    // absent; `.second` is true when it inserted.
    std::pair<std::uint32_t, bool> emplace(const Key& key, std::uint32_t value) {
        if (2 * (size_ + 1) > slots_.size()) grow();
        Slot& slot = slots_[find_slot(key)];
        if (slot.value != kEmpty) return {slot.value, false};
        slot = {key, value};
        ++size_;
        return {value, true};
    }

private:
    static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
    struct Slot {
        Key key{};
        std::uint32_t value = kEmpty;
    };

    // The slot holding `key`, or the empty slot where it would go.
    [[nodiscard]] std::size_t find_slot(const Key& key) const {
        std::uint64_t h = 0;
        for (std::int32_t k : key) h = (h ^ static_cast<std::uint32_t>(k)) * 0x9e3779b97f4a7c15ull;
        std::size_t mask = slots_.size() - 1;
        for (std::size_t i = (h >> 32) & mask;; i = (i + 1) & mask) {
            if (slots_[i].value == kEmpty || slots_[i].key == key) return i;
        }
    }

    void grow() {
        std::vector<Slot> old(std::max<std::size_t>(16, 2 * slots_.size()));
        old.swap(slots_);
        for (const Slot& slot : old) {
            if (slot.value != kEmpty) slots_[find_slot(slot.key)] = slot;
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

struct State {
    int prod;
    int dot;
    int origin;
};

// A completed item: production `prod`, whose lhs is `lhs`, derives tokens
// [start, end).
struct Span {
    std::uint32_t lhs;  // Symbol id
    int start;
    int end;
    int prod;

    friend auto operator<=>(const Span&, const Span&) = default;
};

struct Chart {
    // Sorted, so the spans of one nonterminal from one start are one run,
    // ascending by end and then by production.
    std::vector<Span> completed;
    bool accepted = false;

    [[nodiscard]] std::span<const Span> from(Symbol nt, int start) const {
        auto before = [](const Span& a, const Span& b) {
            return std::pair(a.lhs, a.start) < std::pair(b.lhs, b.start);
        };
        auto [first, last] =
            std::equal_range(completed.begin(), completed.end(), Span{nt.id(), start, 0, 0}, before);
        return {first, last};
    }
};

Chart run_earley(const Grammar& g, const TokenString& tokens) {
    obs::Phase phase(obs::PhaseId::CfgParse);
    int n = static_cast<int>(tokens.size());
    // The chart is one array: the items of position i are items[first[i],
    // first[i + 1]). Scans into i + 1 wait in `scanned` until i is done.
    std::vector<State> items;
    std::vector<std::size_t> first{0};
    std::vector<State> scanned;
    FlatIndex seen;  // (position, production, dot, origin)
    auto is_new = [&](int position, State s) {
        return seen.emplace({position, s.prod, s.dot, s.origin}, 0).second;
    };
    auto add = [&](int position, State s) {
        if (is_new(position, s)) items.push_back(s);
    };

    for (int p : g.productions_for(g.start())) add(0, {p, 0, 0});

    Chart result;
    for (int i = 0; i <= n; ++i) {
        // Worklist over position i; completion and prediction may append.
        for (std::size_t k = first.back(); k < items.size(); ++k) {
            State s = items[k];
            const auto& prod = g.production(s.prod);
            if (s.dot < static_cast<int>(prod.rhs.size())) {
                const GSym& next = prod.rhs[static_cast<std::size_t>(s.dot)];
                if (next.terminal) {
                    // Scan.
                    State t{s.prod, s.dot + 1, s.origin};
                    if (i < n && tokens[static_cast<std::size_t>(i)] == next.name && is_new(i + 1, t)) {
                        scanned.push_back(t);
                    }
                } else {
                    // Predict (+ nullable fix: advance over nullable nonterminals).
                    for (int p : g.productions_for(next.name)) add(i, {p, 0, i});
                    if (g.is_nullable(next.name)) add(i, {s.prod, s.dot + 1, s.origin});
                }
            } else {
                // Complete. Items are unique, so each span is recorded once.
                result.completed.push_back({prod.lhs.id(), s.origin, i, s.prod});
                // By index: an empty completion (origin == i) appends to the
                // very position it scans.
                auto origin = static_cast<std::size_t>(s.origin);
                auto waiting_end = [&] { return s.origin < i ? first[origin + 1] : items.size(); };
                for (std::size_t w = first[origin]; w < waiting_end(); ++w) {
                    State t = items[w];
                    const auto& tp = g.production(t.prod);
                    if (t.dot < static_cast<int>(tp.rhs.size()) &&
                        !tp.rhs[static_cast<std::size_t>(t.dot)].terminal &&
                        tp.rhs[static_cast<std::size_t>(t.dot)].name == prod.lhs) {
                        add(i, {t.prod, t.dot + 1, t.origin});
                    }
                }
            }
        }
        first.push_back(items.size());
        items.insert(items.end(), scanned.begin(), scanned.end());
        scanned.clear();
    }

    std::sort(result.completed.begin(), result.completed.end());
    auto whole = result.from(g.start(), 0);
    result.accepted = std::any_of(whole.begin(), whole.end(), [&](const Span& s) { return s.end == n; });

    if (obs::metrics_enabled()) {
        auto& m = obs::metrics();
        static obs::Counter& chart_items = m.counter("cfg.earley.chart_items");
        static obs::Counter& completed = m.counter("cfg.earley.completions");
        static obs::Counter& accepted = m.counter("cfg.earley.accepted");
        chart_items.add(items.size());
        completed.add(result.completed.size());
        if (result.accepted) accepted.add(1);
    }
    return result;
}

// Enumerates parse trees from the completed-span table.
class TreeBuilder {
public:
    TreeBuilder(const Grammar& g, const TokenString& tokens, const Chart& chart, std::size_t max_trees)
        : g_(g), tokens_(tokens), chart_(chart), budget_(max_trees) {}

    // Nothing asks for the whole span once it is built, so it is not
    // memoized.
    std::vector<ParseNode> build_start() {
        return build_nonterminal(g_.start(), 0, static_cast<int>(tokens_.size()), false);
    }

private:
    // One (nonterminal, i, j) the builder has met. Spans whose computation
    // was clipped by the cycle guard are not memoized (their result depends
    // on the recursion context); they go back to Open.
    struct Memo {
        enum { Open, Active, Done } state = Open;
        std::vector<ParseNode> trees;
    };

    // Trees for nonterminal `nt` spanning [i, j).
    std::vector<ParseNode> build_nonterminal(Symbol nt, int i, int j, bool memoize = true) {
        auto [index, inserted] = spans_.emplace({static_cast<std::int32_t>(nt.id()), i, j, 0},
                                                static_cast<std::uint32_t>(memo_.size()));
        if (inserted) memo_.emplace_back();
        // By index: the recursion below may grow memo_.
        if (memo_[index].state == Memo::Done) return memo_[index].trees;
        std::vector<ParseNode> out;
        if (memo_[index].state == Memo::Active) {  // cut cyclic unit derivations
            ++guard_cuts_;
            return out;
        }
        memo_[index].state = Memo::Active;
        int cuts_before = guard_cuts_;
        for (const Span& span : chart_.from(nt, i)) {
            if (span.end != j) continue;
            std::vector<ParseNode> prefix_children;
            prefix_children.reserve(g_.production(span.prod).rhs.size());
            expand(span.prod, 0, i, j, prefix_children, out);
            if (out.size() >= budget_) break;
        }
        if (guard_cuts_ == cuts_before && memoize) {
            memo_[index] = {Memo::Done, out};
        } else {
            memo_[index].state = Memo::Open;
        }
        return out;
    }

    // Extends partial child list `children` covering [start of prod, at) with
    // the symbols of production `p` from position `pos`, targeting end `j`.
    void expand(int p, std::size_t pos, int at, int j, std::vector<ParseNode>& children,
                std::vector<ParseNode>& out) {
        if (out.size() >= budget_) return;
        const auto& prod = g_.production(p);
        if (pos == prod.rhs.size()) {
            if (at == j) {
                ParseNode node;
                node.sym = GSym::nonterm(prod.lhs);
                node.production = p;
                node.children = children;
                out.push_back(std::move(node));
            }
            return;
        }
        const GSym& sym = prod.rhs[pos];
        if (sym.terminal) {
            if (at < j && tokens_[static_cast<std::size_t>(at)] == sym.name) {
                children.push_back(ParseNode{sym, -1, {}});
                expand(p, pos + 1, at + 1, j, children, out);
                children.pop_back();
            }
            return;
        }
        // Nonterminal: try every recorded end for any of its productions,
        // ascending and once each.
        int last_end = -1;
        for (const Span& span : chart_.from(sym.name, at)) {
            if (span.end > j) break;
            if (span.end == last_end) continue;
            last_end = span.end;
            int e = span.end;
            auto subtrees = build_nonterminal(sym.name, at, e);
            for (auto& sub : subtrees) {
                children.push_back(std::move(sub));
                expand(p, pos + 1, e, j, children, out);
                children.pop_back();
                if (out.size() >= budget_) return;
            }
        }
    }

    const Grammar& g_;
    const TokenString& tokens_;
    const Chart& chart_;
    std::size_t budget_;
    FlatIndex spans_;  // (nonterminal, i, j) -> index into memo_
    std::vector<Memo> memo_;
    int guard_cuts_ = 0;
};

}  // namespace

bool recognizes(const Grammar& grammar, const TokenString& tokens) {
    return run_earley(grammar, tokens).accepted;
}

std::vector<ParseNode> parse_trees(const Grammar& grammar, const TokenString& tokens,
                                   const ParseOptions& options) {
    Chart chart = run_earley(grammar, tokens);
    if (!chart.accepted) return {};
    obs::Phase phase(obs::PhaseId::CfgExtractTrees);
    auto trees = TreeBuilder(grammar, tokens, chart, options.max_trees).build_start();
    if (obs::metrics_enabled()) {
        static obs::Counter& extracted = obs::metrics().counter("cfg.earley.trees_extracted");
        extracted.add(trees.size());
    }
    return trees;
}

std::uint64_t subtree_hash(const ParseNode& node) {
    // FNV-style fold over (production, child hashes); leaves get a fixed
    // salt so arity differences always change the parent hash.
    if (node.is_leaf()) return 0x9e3779b97f4a7c15ull;
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    mix(static_cast<std::uint64_t>(node.production) + 1);
    mix(node.children.size());
    for (const auto& child : node.children) mix(subtree_hash(child));
    return h;
}

void subtree_shape(const ParseNode& node, std::vector<int>& out) {
    if (node.is_leaf()) {
        out.push_back(-1);
        return;
    }
    out.push_back(node.production);
    out.push_back(static_cast<int>(node.children.size()));
    for (const auto& child : node.children) subtree_shape(child, out);
}

}  // namespace agenp::cfg
