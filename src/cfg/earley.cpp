#include "cfg/earley.hpp"

#include <algorithm>
#include <map>
#include <set>

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

struct State {
    int prod;
    int dot;
    int origin;

    friend auto operator<=>(const State&, const State&) = default;
};

// The Earley chart plus the completed-span table used for tree extraction.
struct Chart {
    // completed[(lhs production, start)] -> ends
    std::map<std::pair<int, int>, std::set<int>> completed;
    bool accepted = false;
};

Chart run_earley(const Grammar& g, const TokenString& tokens) {
    obs::Phase phase(obs::PhaseId::CfgParse);
    auto nullable_list = g.nullable_nonterminals();
    std::set<Symbol> nullable(nullable_list.begin(), nullable_list.end());

    int n = static_cast<int>(tokens.size());
    std::vector<std::vector<State>> chart(static_cast<std::size_t>(n) + 1);
    std::vector<std::set<State>> seen(static_cast<std::size_t>(n) + 1);

    std::size_t chart_items = 0;
    std::size_t completions = 0;
    auto add = [&](int position, State s) {
        if (seen[static_cast<std::size_t>(position)].insert(s).second) {
            chart[static_cast<std::size_t>(position)].push_back(s);
            ++chart_items;
        }
    };

    for (int p : g.productions_for(g.start())) add(0, {p, 0, 0});

    Chart result;
    for (int i = 0; i <= n; ++i) {
        // Worklist over chart[i]; completion and prediction may append.
        for (std::size_t k = 0; k < chart[static_cast<std::size_t>(i)].size(); ++k) {
            State s = chart[static_cast<std::size_t>(i)][k];
            const auto& prod = g.production(s.prod);
            if (s.dot < static_cast<int>(prod.rhs.size())) {
                const GSym& next = prod.rhs[static_cast<std::size_t>(s.dot)];
                if (next.terminal) {
                    // Scan.
                    if (i < n && tokens[static_cast<std::size_t>(i)] == next.name) {
                        add(i + 1, {s.prod, s.dot + 1, s.origin});
                    }
                } else {
                    // Predict (+ nullable fix: advance over nullable nonterminals).
                    for (int p : g.productions_for(next.name)) add(i, {p, 0, i});
                    if (nullable.contains(next.name)) add(i, {s.prod, s.dot + 1, s.origin});
                }
            } else {
                // Complete.
                ++completions;
                result.completed[{s.prod, s.origin}].insert(i);
                // By index and by value: an empty completion (origin == i)
                // appends to the very list it scans.
                const std::vector<State>& waiting = chart[static_cast<std::size_t>(s.origin)];
                for (std::size_t w = 0; w < waiting.size(); ++w) {
                    State t = waiting[w];
                    const auto& tp = g.production(t.prod);
                    if (t.dot < static_cast<int>(tp.rhs.size()) &&
                        !tp.rhs[static_cast<std::size_t>(t.dot)].terminal &&
                        tp.rhs[static_cast<std::size_t>(t.dot)].name == prod.lhs) {
                        add(i, {t.prod, t.dot + 1, t.origin});
                    }
                }
            }
        }
    }

    for (int p : g.productions_for(g.start())) {
        auto it = result.completed.find({p, 0});
        if (it != result.completed.end() && it->second.contains(n)) {
            result.accepted = true;
            break;
        }
    }

    if (obs::metrics_enabled()) {
        auto& m = obs::metrics();
        static obs::Counter& parses = m.counter("cfg.earley.parses");
        static obs::Counter& items = m.counter("cfg.earley.chart_items");
        static obs::Counter& completed = m.counter("cfg.earley.completions");
        static obs::Counter& accepted = m.counter("cfg.earley.accepted");
        parses.add(1);
        items.add(chart_items);
        completed.add(completions);
        if (result.accepted) accepted.add(1);
    }
    return result;
}

// Enumerates parse trees from the completed-span table.
class TreeBuilder {
public:
    TreeBuilder(const Grammar& g, const TokenString& tokens, const Chart& chart, std::size_t max_trees)
        : g_(g), tokens_(tokens), chart_(chart), budget_(max_trees) {}

    std::vector<ParseNode> build_start() {
        return build_nonterminal(g_.start(), 0, static_cast<int>(tokens_.size()));
    }

private:
    // Trees for nonterminal `nt` spanning [i, j). Memoized per span; spans
    // whose computation was clipped by the cycle guard are not cached (their
    // result depends on the recursion context).
    std::vector<ParseNode> build_nonterminal(Symbol nt, int i, int j) {
        auto key = std::make_tuple(nt, i, j);
        if (auto it = memo_.find(key); it != memo_.end()) return it->second;
        std::vector<ParseNode> out;
        if (active_.contains(key)) {  // cut cyclic unit derivations
            ++guard_cuts_;
            return out;
        }
        active_.insert(key);
        int cuts_before = guard_cuts_;
        for (int p : g_.productions_for(nt)) {
            auto it = chart_.completed.find({p, i});
            if (it == chart_.completed.end() || !it->second.contains(j)) continue;
            std::vector<ParseNode> prefix_children;
            expand(p, 0, i, j, prefix_children, out);
            if (out.size() >= budget_) break;
        }
        active_.erase(key);
        if (guard_cuts_ == cuts_before) memo_.emplace(key, out);
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
        // Nonterminal: try every recorded end for any of its productions.
        std::set<int> ends;
        for (int q : g_.productions_for(sym.name)) {
            auto it = chart_.completed.find({q, at});
            if (it != chart_.completed.end()) {
                for (int e : it->second) {
                    if (e <= j) ends.insert(e);
                }
            }
        }
        for (int e : ends) {
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
    std::set<std::tuple<Symbol, int, int>> active_;
    std::map<std::tuple<Symbol, int, int>, std::vector<ParseNode>> memo_;
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
