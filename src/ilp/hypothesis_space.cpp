#include "ilp/hypothesis_space.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>

#include "asp/substitution.hpp"

namespace agenp::ilp {
namespace {

// A typed hypothesis variable before canonical renaming.
struct TypedVar {
    Symbol type;
    int index;

    friend auto operator<=>(const TypedVar&, const TypedVar&) = default;
};

Symbol typed_var_name(const TypedVar& v) {
    return Symbol("V_" + std::string(v.type.str()) + "_" + std::to_string(v.index));
}

struct SkeletonLiteral {
    std::size_t mode_index;
    bool negated;
};

class SpaceGenerator {
public:
    SpaceGenerator(const ModeBias& bias, const std::vector<int>& targets, const SpaceLimits& limits)
        : bias_(bias), targets_(targets), limits_(limits) {}

    HypothesisSpace run() {
        std::vector<std::optional<std::size_t>> head_options;
        if (bias_.allow_constraints) head_options.push_back(std::nullopt);
        for (std::size_t i = 0; i < bias_.head.size(); ++i) head_options.push_back(i);

        for (const auto& head : head_options) {
            for (int k = bias_.min_body_atoms; k <= bias_.max_body_atoms; ++k) {
                std::vector<SkeletonLiteral> skeleton;
                enumerate_skeletons(head, 0, k, skeleton);
            }
        }
        return std::move(space_);
    }

private:
    // Chooses body literals as a non-decreasing sequence of mode indices
    // (combination with repetition) with sign options.
    void enumerate_skeletons(const std::optional<std::size_t>& head, std::size_t from, int remaining,
                             std::vector<SkeletonLiteral>& skeleton) {
        if (remaining == 0) {
            fill_arguments(head, skeleton);
            return;
        }
        for (std::size_t m = from; m < bias_.body.size(); ++m) {
            skeleton.push_back({m, false});
            enumerate_skeletons(head, m, remaining - 1, skeleton);
            skeleton.pop_back();
            if (bias_.body[m].allow_negated) {
                skeleton.push_back({m, true});
                enumerate_skeletons(head, m, remaining - 1, skeleton);
                skeleton.pop_back();
            }
        }
    }

    // Enumerates argument fillings for every slot of the skeleton.
    void fill_arguments(const std::optional<std::size_t>& head,
                        const std::vector<SkeletonLiteral>& skeleton) {
        // Collect slots: head first, then body literals in order.
        slots_.clear();
        if (head) {
            for (const auto& a : bias_.head[*head].args) slots_.push_back(a);
        }
        for (const auto& lit : skeleton) {
            for (const auto& a : bias_.body[lit.mode_index].args) slots_.push_back(a);
        }
        filling_.assign(slots_.size(), asp::Term());
        vars_used_.clear();
        fill_slot(head, skeleton, 0);
    }

    void fill_slot(const std::optional<std::size_t>& head, const std::vector<SkeletonLiteral>& skeleton,
                   std::size_t slot) {
        if (slot == slots_.size()) {
            assemble(head, skeleton);
            return;
        }
        const ArgSpec& spec = slots_[slot];
        switch (spec.kind) {
            case ArgSpec::Kind::Fixed:
                filling_[slot] = spec.fixed;
                fill_slot(head, skeleton, slot + 1);
                break;
            case ArgSpec::Kind::Const: {
                auto it = bias_.constants.find(spec.type);
                if (it == bias_.constants.end()) return;  // empty pool: no filling
                for (const auto& term : it->second) {
                    filling_[slot] = term;
                    fill_slot(head, skeleton, slot + 1);
                }
                break;
            }
            case ArgSpec::Kind::Var: {
                // First-occurrence fillings only: a slot reuses an index of
                // its type or takes the next fresh one. Renaming indices
                // within a type yields the same canonical rule, and each
                // rule's lexicographically first filling is of this form,
                // so the skipped fillings would only emit duplicates.
                int& used = vars_used_[spec.type];
                const int fresh = used;
                for (int v = 0; v <= fresh && v < bias_.max_vars; ++v) {
                    filling_[slot] = asp::Term::variable(typed_var_name({spec.type, v}));
                    used = v == fresh ? fresh + 1 : fresh;
                    fill_slot(head, skeleton, slot + 1);
                }
                used = fresh;
                break;
            }
        }
    }

    // Builds the rule from the filled skeleton, then layers comparisons.
    void assemble(const std::optional<std::size_t>& head, const std::vector<SkeletonLiteral>& skeleton) {
        asp::Rule rule;
        std::size_t slot = 0;
        auto make_atom = [&](const ModeAtom& mode) {
            asp::Atom atom;
            atom.predicate = mode.predicate;
            atom.annotation = mode.annotation;
            for (std::size_t i = 0; i < mode.args.size(); ++i) atom.args.push_back(filling_[slot++]);
            return atom;
        };
        if (head) rule.head = make_atom(bias_.head[*head]);
        for (const auto& lit : skeleton) {
            rule.body.emplace_back(make_atom(bias_.body[lit.mode_index]), !lit.negated);
        }

        // Distinct-variable budget.
        std::vector<Symbol> vars;
        rule.collect_variables(vars);
        std::sort(vars.begin(), vars.end());
        vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
        if (static_cast<int>(vars.size()) > bias_.max_vars) return;

        emit(rule);
        // Each comparison mode's variables in the rule, by (type, index):
        // the filling used indices 0..n-1 of each type. They set the
        // comparison candidates' order, which Symbol ids would make depend
        // on what the process interned before.
        std::vector<std::vector<Symbol>> typed(bias_.comparisons.size());
        for (std::size_t m = 0; m < typed.size(); ++m) {
            Symbol type = bias_.comparisons[m].type;
            auto used = vars_used_.find(type);
            int n = used == vars_used_.end() ? 0 : used->second;
            for (int v = 0; v < n; ++v) typed[m].push_back(typed_var_name({type, v}));
        }
        add_comparisons(rule, typed, 0);
    }

    // Recursively layers up to max_comparisons builtins onto `rule`;
    // typed[m] holds the rule's variables of comparison mode m's type.
    void add_comparisons(const asp::Rule& rule, const std::vector<std::vector<Symbol>>& typed_vars,
                         int depth) {
        if (depth >= bias_.max_comparisons) return;
        for (std::size_t m = 0; m < bias_.comparisons.size(); ++m) {
            const auto& cm = bias_.comparisons[m];
            const std::vector<Symbol>& typed = typed_vars[m];
            for (auto op : cm.ops) {
                if (cm.var_vs_const) {
                    auto pool = bias_.constants.find(cm.type);
                    if (pool != bias_.constants.end()) {
                        for (auto v : typed) {
                            for (const auto& c : pool->second) {
                                asp::Rule extended = rule;
                                extended.builtins.emplace_back(op, asp::Term::variable(v), c);
                                emit(extended);
                                add_comparisons(extended, typed_vars, depth + 1);
                            }
                        }
                    }
                }
                if (cm.var_vs_var) {
                    for (std::size_t i = 0; i < typed.size(); ++i) {
                        for (std::size_t j = 0; j < typed.size(); ++j) {
                            if (i == j) continue;
                            asp::Rule extended = rule;
                            extended.builtins.emplace_back(op, asp::Term::variable(typed[i]),
                                                           asp::Term::variable(typed[j]));
                            emit(extended);
                            add_comparisons(extended, typed_vars, depth + 1);
                        }
                    }
                }
            }
        }
    }

    // Canonicalizes, safety-checks, dedupes and records `rule` for every
    // target production.
    void emit(const asp::Rule& rule) {
        if (!rule.is_safe()) return;
        asp::Rule canonical = canonical_rename(rule);
        std::string key = canonical.to_string();
        if (!seen_.insert(key).second) return;
        for (int production : targets_) {
            space_.candidates.push_back({canonical, production, canonical.size()});
        }
        if (space_.candidates.size() > limits_.max_candidates) {
            throw std::runtime_error("hypothesis space exceeds max_candidates; tighten the mode bias");
        }
    }

    // Renames variables to V1..Vn in first-occurrence order (textual order:
    // head, body, builtins), which collapses permutation-equivalent rules.
    static asp::Rule canonical_rename(const asp::Rule& rule) {
        std::vector<Symbol> order;
        rule.collect_variables(order);
        std::vector<Symbol> firsts;
        for (auto v : order) {
            if (std::find(firsts.begin(), firsts.end(), v) == firsts.end()) firsts.push_back(v);
        }
        asp::Subst subst;
        for (std::size_t i = 0; i < firsts.size(); ++i) {
            subst.bind(firsts[i], asp::Term::variable(Symbol("V" + std::to_string(i + 1))));
        }
        asp::Rule out;
        if (rule.head) out.head = asp::apply_subst(*rule.head, subst);
        for (const auto& l : rule.body) out.body.emplace_back(asp::apply_subst(l.atom, subst), l.positive);
        for (const auto& c : rule.builtins) {
            out.builtins.emplace_back(c.op, asp::apply_subst(c.lhs, subst), asp::apply_subst(c.rhs, subst));
        }
        return out;
    }

    const ModeBias& bias_;
    const std::vector<int>& targets_;
    const SpaceLimits& limits_;
    std::vector<ArgSpec> slots_;
    std::vector<asp::Term> filling_;
    std::map<Symbol, int> vars_used_;  // per type: distinct indices in filling_[0, slot)
    std::set<std::string> seen_;
    HypothesisSpace space_;
};

}  // namespace

HypothesisSpace generate_space(const ModeBias& bias, const std::vector<int>& target_productions,
                               const SpaceLimits& limits) {
    return SpaceGenerator(bias, target_productions, limits).run();
}

}  // namespace agenp::ilp
