#include "ilp/learner.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <unordered_map>

#include "asp/ground_program.hpp"
#include "asp/substitution.hpp"
#include "ilp/guidance.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"

namespace agenp::ilp {

std::string LearnResult::hypothesis_to_string() const {
    std::string out;
    for (const auto& [rule, production] : hypothesis) {
        out += rule.to_string() + "   % -> production " + std::to_string(production) + "\n";
    }
    return out;
}

namespace {

using asg::Trace;
using util::Symbol;

// ---------------------------------------------------------------------------
// Fast path: constraint-only hypothesis spaces.
// ---------------------------------------------------------------------------

// Every atom of every world of one learn, interned once; the GroundProgram
// serves only as the atom table.
using AtomTable = asp::GroundProgram;
using asp::AtomId;

// One answer set of the base program for one parse tree: its atom ids,
// sorted by predicate for joins, plus a membership bitset over atom ids.
struct World {
    std::size_t tree_index = 0;
    std::vector<AtomId> atoms;
    std::vector<std::uint64_t> bits;

    [[nodiscard]] bool holds(AtomId id) const {
        auto word = static_cast<std::size_t>(id) / 64;
        return word < bits.size() && ((bits[word] >> (id % 64)) & 1U) != 0;
    }
};

struct TreeInfo {
    // production -> its nodes in depth-first order, as indexes into the
    // learner's distinct traces of that production
    std::unordered_map<int, std::vector<std::size_t>> nodes;
};

struct ExampleWorlds {
    std::vector<TreeInfo> trees;
    std::vector<World> worlds;  // capped at 64 so masks fit a word
    bool cap_hit = false;
};

using Mask = std::uint64_t;

Mask all_worlds_mask(std::size_t n) { return n >= 64 ? ~Mask{0} : ((Mask{1} << n) - 1); }

// Evaluates the body of a (renamed, possibly non-ground) constraint against
// a fixed interpretation: true iff some grounding satisfies every positive
// literal, every builtin, and no negative literal.
class BodyMatcher {
public:
    BodyMatcher(const asp::Rule& rule, const World& world, const AtomTable& atoms)
        : rule_(rule), world_(world), atoms_(atoms) {}

    bool exists_match() {
        asp::Subst subst;
        return match_positive(0, subst);
    }

private:
    bool match_positive(std::size_t index, asp::Subst& subst) {
        // Advance to the next positive literal.
        while (index < rule_.body.size() && !rule_.body[index].positive) ++index;
        if (index == rule_.body.size()) return finish(subst);
        const asp::Atom& pattern = rule_.body[index].atom;
        auto by_predicate = [this](AtomId id, Symbol p) { return atoms_.atom(id).predicate < p; };
        auto it = std::lower_bound(world_.atoms.begin(), world_.atoms.end(), pattern.predicate,
                                   by_predicate);
        for (; it != world_.atoms.end() && atoms_.atom(*it).predicate == pattern.predicate; ++it) {
            std::size_t mark = subst.size();
            if (asp::match_atom(pattern, atoms_.atom(*it), subst) &&
                match_positive(index + 1, subst)) {
                return true;
            }
            subst.truncate(mark);
        }
        return false;
    }

    bool finish(asp::Subst& subst) {
        // Builtins, with `V = ground-expr` binders, in passes until every
        // one is ground (like the grounder). A pass re-checks what earlier
        // passes decided: a bound binder is then a true ground comparison.
        std::size_t mark = subst.size();
        for (;;) {
            bool bound = false;
            bool pending = false;
            for (const auto& builtin : rule_.builtins) {
                asp::Term lhs = asp::apply_subst(builtin.lhs, subst);
                asp::Term rhs = asp::apply_subst(builtin.rhs, subst);
                if (builtin.op == asp::Comparison::Op::Eq && lhs.is_variable() && rhs.is_ground()) {
                    auto value = asp::evaluate_arithmetic(rhs);
                    if (!value) {
                        subst.truncate(mark);
                        return false;
                    }
                    subst.bind(lhs.symbol(), *value);
                    bound = true;
                } else if (lhs.is_ground() && rhs.is_ground()) {
                    auto result = asp::Comparison(builtin.op, lhs, rhs).evaluate();
                    if (!result || !*result) {
                        subst.truncate(mark);
                        return false;
                    }
                } else {
                    pending = true;
                }
            }
            if (!pending) break;
            if (!bound) {  // unsafe leftovers; treat as no match
                subst.truncate(mark);
                return false;
            }
        }
        // Negative literals must be absent from the interpretation.
        for (const auto& l : rule_.body) {
            if (l.positive) continue;
            AtomId id = atoms_.find(asp::apply_subst(l.atom, subst));
            if (id != asp::kNoHead && world_.holds(id)) {
                subst.truncate(mark);
                return false;
            }
        }
        return true;
    }

    const asp::Rule& rule_;
    const World& world_;
    const AtomTable& atoms_;
};

// A candidate renamed into the namespace of one node, its ground body
// literals resolved to atom ids. Only the literals with variables and the
// comparisons (`open`) go through BodyMatcher.
struct NodeRule {
    bool satisfiable = true;  // false: a positive ground literal no world holds
    std::vector<AtomId> must_hold;
    std::vector<AtomId> must_lack;
    asp::Rule open;

    NodeRule(const asp::Rule& renamed, const AtomTable& atoms) {
        open.builtins = renamed.builtins;
        for (const auto& l : renamed.body) {
            if (!l.atom.is_ground()) {
                open.body.push_back(l);
                continue;
            }
            AtomId id = atoms.find(l.atom);
            if (id == asp::kNoHead) {
                satisfiable = satisfiable && !l.positive;  // an atom no world holds
            } else {
                (l.positive ? must_hold : must_lack).push_back(id);
            }
        }
    }
};

// A set of the learn's worlds, one bit per world. Worlds are numbered
// across the whole learn, positives' first, and each example's worlds are
// consecutive, so an example's Mask is a run of bits.
using WorldSet = std::vector<Mask>;

void add_world(WorldSet& set, std::size_t w) { set[w / 64] |= Mask{1} << (w % 64); }

// Bits [first, first + n) of `set`, n <= 64.
Mask world_run(const WorldSet& set, std::size_t first, std::size_t n) {
    if (n == 0) return 0;
    std::size_t word = first / 64;
    std::size_t shift = first % 64;
    Mask bits = set[word] >> shift;
    if (shift != 0 && word + 1 < set.size()) bits |= set[word + 1] << (64 - shift);
    return bits & all_worlds_mask(n);
}

// The worlds of a learn grouped by their atoms of a set of predicates: the
// predicates of an open body. BodyMatcher reads a world only through atoms
// of the open body's predicates (positive joins and negated look-ups), so
// it answers alike at every world of a class.
struct WorldClasses {
    std::vector<std::uint32_t> class_of;      // by world
    std::vector<std::size_t> representative;  // by class: its first world
    // One node rule's answer per class, valid where `evaluated` holds that
    // rule's number.
    std::vector<std::size_t> evaluated;
    std::vector<char> fires;
};

class FastPathLearner {
public:
    FastPathLearner(const LearningTask& task, const LearnOptions& options)
        : task_(task), options_(options) {}

    LearnResult run() {
        LearnResult result;
        result.stats.used_fast_path = true;
        result.stats.candidates = task_.space.candidates.size();

        noisy_ = options_.noise_penalty > 0;
        if (!build_worlds(result)) return result;
        build_violation_masks(result);

        // In strict mode, candidates that kill every world of some positive
        // example can never appear in a solution. In noisy mode a positive
        // may be sacrificed, so every candidate stays usable.
        std::vector<std::size_t> usable;
        for (std::size_t c = 0; c < task_.space.candidates.size(); ++c) {
            bool ok = true;
            if (!noisy_) {
                for (std::size_t e = 0; e < positive_.size() && ok; ++e) {
                    Mask alive = all_worlds_mask(positive_[e].worlds.size()) & ~violates_pos_[c][e];
                    if (alive == 0) ok = false;
                }
            }
            if (ok) usable.push_back(c);
        }

        // Strict feasibility: every world of every negative example must be
        // eliminable. (In noisy mode such a negative is abandonable.)
        if (!noisy_) {
            for (std::size_t e = 0; e < negative_.size(); ++e) {
                Mask covered = 0;
                for (auto c : usable) covered |= violates_neg_[c][e];
                if ((covered & all_worlds_mask(negative_[e].worlds.size())) !=
                    all_worlds_mask(negative_[e].worlds.size())) {
                    result.failure_reason =
                        "negative example " + std::to_string(e) +
                        " has a world no candidate constraint can eliminate";
                    return result;
                }
            }
        }

        // Exact branch-and-bound set cover (with optional per-example
        // penalties).
        pos_alive_.assign(positive_.size(), 0);
        for (std::size_t e = 0; e < positive_.size(); ++e) {
            pos_alive_[e] = all_worlds_mask(positive_[e].worlds.size());
        }
        neg_left_.assign(negative_.size(), 0);
        for (std::size_t e = 0; e < negative_.size(); ++e) {
            neg_left_[e] = all_worlds_mask(negative_[e].worlds.size());
        }
        sacrificed_pos_.assign(positive_.size(), 0);
        abandoned_neg_.assign(negative_.size(), 0);
        usable_ = std::move(usable);
        // Statistical guidance: branch on predicted-useful candidates first
        // (stable: equal scores keep generation order, which is cost order).
        if (options_.guidance != nullptr && options_.guidance->trained()) {
            std::vector<double> scores(task_.space.candidates.size());
            for (auto c : usable_) scores[c] = options_.guidance->score(task_.space.candidates[c]);
            std::stable_sort(usable_.begin(), usable_.end(),
                             [&](std::size_t a, std::size_t b) { return scores[a] > scores[b]; });
        }
        best_cost_ = options_.max_cost + 1;
        best_violated_ = 0;
        // Worldless positives are violated from the outset in noisy mode.
        int base_penalty = 0;
        for (const auto& p : positive_) {
            if (p.worlds.empty()) base_penalty += options_.noise_penalty;
        }
        search(0, base_penalty, result.stats);

        if (budget_exhausted_) {
            result.failure_reason = "search budget exhausted";
            return result;
        }
        if (best_cost_ > options_.max_cost) {
            if (result.failure_reason.empty()) {
                result.failure_reason = "no hypothesis within cost bound " +
                                        std::to_string(options_.max_cost);
            }
            return result;
        }
        result.found = true;
        result.cost = best_cost_;
        result.violated_examples = best_violated_;
        for (auto c : best_choice_) {
            const auto& cand = task_.space.candidates[c];
            result.hypothesis.emplace_back(cand.rule, cand.production);
        }
        return result;
    }

private:
    // Worlds are the answer sets of G(C)[PT] under the part of C that the
    // initial ASG or some candidate reads (asg::relevant_context). They
    // correspond one to one with those under the whole C and agree on every
    // atom a candidate can test, so coverage checks, world caps and the
    // search are unchanged.
    bool build_worlds(LearnResult& result) {
        std::vector<Symbol> candidate_reads;
        for (const auto& cand : task_.space.candidates) {
            for (const auto& l : cand.rule.body) candidate_reads.push_back(l.atom.predicate);
        }
        std::sort(candidate_reads.begin(), candidate_reads.end());
        candidate_reads.erase(std::unique(candidate_reads.begin(), candidate_reads.end()),
                              candidate_reads.end());
        auto build = [&](const Example& ex, ExampleWorlds& out) {
            auto trees = cfg::parse_trees(task_.initial.grammar(), ex.string,
                                          options_.membership.parse);
            std::size_t cap = std::min<std::size_t>(options_.max_worlds_per_example, 64);
            asp::Program context = asg::relevant_context(task_.initial, ex.context, candidate_reads);
            for (const auto& tree : trees) {
                TreeInfo info;
                for (auto& [trace, production] : asg::production_nodes(tree)) {
                    auto& traces = node_traces_[production];
                    auto index = traces.try_emplace(std::move(trace), traces.size()).first->second;
                    info.nodes[production].push_back(index);
                }
                std::size_t tree_index = out.trees.size();
                out.trees.push_back(std::move(info));
                if (out.worlds.size() >= cap) {
                    out.cap_hit = true;
                    continue;
                }
                asp::Program program = asg::instantiate(task_.initial, tree, context);
                auto gp = asp::ground(program, options_.membership.grounding);
                auto solve_options = options_.membership.solve;
                solve_options.max_models = cap - out.worlds.size() + 1;
                auto solved = asp::solve(gp, solve_options);
                ++result.stats.coverage_checks;
                for (const auto& model : solved.models) {
                    if (out.worlds.size() >= cap) {
                        out.cap_hit = true;
                        break;
                    }
                    out.worlds.push_back(make_world(tree_index, gp, model));
                }
            }
            if (out.cap_hit) result.stats.world_cap_hit = true;
        };

        for (const auto& ex : task_.positive) {
            ExampleWorlds w;
            build(ex, w);
            if (w.worlds.empty() && !noisy_) {
                result.failure_reason = "positive example '" + cfg::detokenize(ex.string) +
                                        "' is not accepted by the initial ASG under its context; "
                                        "constraints cannot add strings";
                return false;
            }
            // In noisy mode a worldless positive is unfixable and counts as
            // violated from the start.
            positive_.push_back(std::move(w));
        }
        for (const auto& ex : task_.negative) {
            ExampleWorlds w;
            build(ex, w);
            // Negative examples with no worlds are already rejected.
            if (!w.worlds.empty()) negative_.push_back(std::move(w));
        }
        return true;
    }

    World make_world(std::size_t tree_index, const asp::GroundProgram& gp,
                     const std::vector<AtomId>& model) {
        World w;
        w.tree_index = tree_index;
        w.atoms.reserve(model.size());
        for (auto id : model) w.atoms.push_back(atoms_.intern(gp.atom(id)));
        w.bits.assign((atoms_.atom_count() + 63) / 64, 0);
        for (auto id : w.atoms) w.bits[static_cast<std::size_t>(id) / 64] |= Mask{1} << (id % 64);
        std::sort(w.atoms.begin(), w.atoms.end(), [this](AtomId a, AtomId b) {
            Symbol pa = atoms_.atom(a).predicate;
            Symbol pb = atoms_.atom(b).predicate;
            return pa != pb ? pa < pb : a < b;
        });
        return w;
    }

    // Groups `worlds` by their atoms of `predicates`.
    WorldClasses group_worlds(const std::vector<const World*>& worlds,
                              const std::vector<Symbol>& predicates) const {
        auto by_predicate = [this](AtomId id, Symbol p) { return atoms_.atom(id).predicate < p; };
        WorldClasses out;
        std::map<std::vector<AtomId>, std::uint32_t> class_by_atoms;
        std::vector<AtomId> key;
        out.class_of.resize(worlds.size());
        for (std::size_t w = 0; w < worlds.size(); ++w) {
            key.clear();
            const auto& atoms = worlds[w]->atoms;
            for (Symbol p : predicates) {
                auto a = std::lower_bound(atoms.begin(), atoms.end(), p, by_predicate);
                for (; a != atoms.end() && atoms_.atom(*a).predicate == p; ++a) key.push_back(*a);
            }
            auto next = static_cast<std::uint32_t>(out.representative.size());
            auto [slot, added] = class_by_atoms.try_emplace(key, next);
            if (added) out.representative.push_back(w);
            out.class_of[w] = slot->second;
        }
        out.evaluated.assign(out.representative.size(), 0);
        out.fires.assign(out.representative.size(), 0);
        return out;
    }

    // Decides each candidate at every world of the learn at once. A node
    // rule fires at the worlds that have its node, hold its must_hold atoms
    // and lack its must_lack atoms (word operations over WorldSets); its
    // open body then runs once per class of those worlds (WorldClasses).
    void build_violation_masks(LearnResult& result) {
        std::vector<const World*> worlds;
        std::vector<const TreeInfo*> tree_of;  // by world
        for (const auto* examples : {&positive_, &negative_}) {
            for (const auto& ew : *examples) {
                for (const auto& world : ew.worlds) {
                    worlds.push_back(&world);
                    tree_of.push_back(&ew.trees[world.tree_index]);
                }
            }
        }
        std::size_t words = (worlds.size() + 63) / 64;

        // production -> node index -> the worlds whose tree has that node
        std::unordered_map<int, std::vector<WorldSet>> present;
        for (const auto& cand : task_.space.candidates) {
            auto traces = node_traces_.find(cand.production);
            if (traces == node_traces_.end()) continue;
            present.try_emplace(cand.production, traces->second.size(), WorldSet(words, 0));
        }
        for (std::size_t w = 0; w < worlds.size(); ++w) {
            for (const auto& [production, indexes] : tree_of[w]->nodes) {
                auto it = present.find(production);
                if (it == present.end()) continue;
                for (auto index : indexes) add_world(it->second[index], w);
            }
        }

        // Only the atoms some candidate tests get a set, built on first use.
        std::unordered_map<AtomId, WorldSet> holding;
        auto worlds_holding = [&](AtomId id) -> const WorldSet& {
            auto [it, fresh] = holding.try_emplace(id, words, 0);
            if (fresh) {
                for (std::size_t w = 0; w < worlds.size(); ++w) {
                    if (worlds[w]->holds(id)) add_world(it->second, w);
                }
            }
            return it->second;
        };

        // open-body predicates (sorted) -> classes of worlds
        std::map<std::vector<Symbol>, WorldClasses> classes;
        auto classes_for = [&](const asp::Rule& open) -> WorldClasses& {
            std::vector<Symbol> predicates;
            for (const auto& l : open.body) predicates.push_back(l.atom.predicate);
            std::sort(predicates.begin(), predicates.end());
            predicates.erase(std::unique(predicates.begin(), predicates.end()), predicates.end());
            auto it = classes.find(predicates);
            if (it == classes.end()) {
                auto grouped = group_worlds(worlds, predicates);
                it = classes.emplace(std::move(predicates), std::move(grouped)).first;
            }
            return it->second;
        };

        std::size_t n = task_.space.candidates.size();
        violates_pos_.assign(n, std::vector<Mask>(positive_.size(), 0));
        violates_neg_.assign(n, std::vector<Mask>(negative_.size(), 0));
        WorldSet violated(words);
        WorldSet fire(words);
        std::size_t rule_number = 0;
        for (std::size_t c = 0; c < n; ++c) {
            const auto& cand = task_.space.candidates[c];
            auto traces = node_traces_.find(cand.production);
            if (traces == node_traces_.end()) continue;
            const auto& nodes = present.at(cand.production);
            std::fill(violated.begin(), violated.end(), 0);
            for (const auto& [trace, index] : traces->second) {
                NodeRule rule(asg::rename_rule_at(cand.rule, trace), atoms_);
                if (!rule.satisfiable) continue;
                // A world some other node already violates needs no check here.
                for (std::size_t i = 0; i < words; ++i) fire[i] = nodes[index][i] & ~violated[i];
                for (auto id : rule.must_hold) {
                    const auto& set = worlds_holding(id);
                    for (std::size_t i = 0; i < words; ++i) fire[i] &= set[i];
                }
                for (auto id : rule.must_lack) {
                    const auto& set = worlds_holding(id);
                    for (std::size_t i = 0; i < words; ++i) fire[i] &= ~set[i];
                }
                if (rule.open.body.empty() && rule.open.builtins.empty()) {
                    for (std::size_t i = 0; i < words; ++i) violated[i] |= fire[i];
                    continue;
                }
                WorldClasses& cls = classes_for(rule.open);
                ++rule_number;
                for (std::size_t i = 0; i < words; ++i) {
                    for (Mask bits = fire[i]; bits != 0; bits &= bits - 1) {
                        std::size_t w = i * 64 + static_cast<std::size_t>(std::countr_zero(bits));
                        std::uint32_t k = cls.class_of[w];
                        if (cls.evaluated[k] != rule_number) {
                            cls.evaluated[k] = rule_number;
                            ++result.stats.coverage_checks;
                            const World& world = *worlds[cls.representative[k]];
                            cls.fires[k] = BodyMatcher(rule.open, world, atoms_).exists_match();
                        }
                        if (cls.fires[k] != 0) add_world(violated, w);
                    }
                }
            }
            std::size_t first = 0;
            for (std::size_t e = 0; e < positive_.size(); ++e) {
                violates_pos_[c][e] = world_run(violated, first, positive_[e].worlds.size());
                first += positive_[e].worlds.size();
            }
            for (std::size_t e = 0; e < negative_.size(); ++e) {
                violates_neg_[c][e] = world_run(violated, first, negative_[e].worlds.size());
                first += negative_[e].worlds.size();
            }
        }
    }

    // Counts positives violated in the current state (sacrificed or, at
    // entry, worldless in noisy mode).
    std::size_t violated_now() const {
        std::size_t n = 0;
        for (std::size_t e = 0; e < positive_.size(); ++e) {
            if (sacrificed_pos_[e] || positive_[e].worlds.empty()) ++n;
        }
        for (std::size_t e = 0; e < negative_.size(); ++e) n += abandoned_neg_[e] != 0;
        return n;
    }

    // A search the budget cuts off has not proved its best solution
    // minimal, so it finds nothing (as on the general path).
    void search(int current_cost, int penalty_cost, LearnStats& stats) {
        if (budget_exhausted_ || ++stats.search_nodes > options_.search_budget) {
            budget_exhausted_ = true;
            return;
        }
        int total = current_cost + penalty_cost;
        // Find an uncovered, unabandoned negative world.
        std::size_t target_e = negative_.size();
        int target_w = -1;
        for (std::size_t e = 0; e < negative_.size(); ++e) {
            if (neg_left_[e] != 0 && !abandoned_neg_[e]) {
                target_e = e;
                target_w = std::countr_zero(neg_left_[e]);
                break;
            }
        }
        if (target_e == negative_.size()) {
            // Every negative is rejected or abandoned.
            if (total < best_cost_) {
                best_cost_ = total;
                best_choice_ = chosen_;
                best_violated_ = violated_now();
            }
            return;
        }
        Mask want = Mask{1} << target_w;
        for (auto c : usable_) {
            if ((violates_neg_[c][target_e] & want) == 0) continue;
            int cost = task_.space.candidates[c].cost;
            if (std::find(chosen_.begin(), chosen_.end(), c) != chosen_.end()) continue;
            // Positives must keep a surviving world — or, in noisy mode, be
            // sacrificed at a penalty.
            std::vector<std::size_t> newly_sacrificed;
            bool ok = true;
            for (std::size_t e = 0; e < positive_.size(); ++e) {
                if (sacrificed_pos_[e] || positive_[e].worlds.empty()) continue;
                if ((pos_alive_[e] & ~violates_pos_[c][e]) == 0) {
                    if (!noisy_) {
                        ok = false;
                        break;
                    }
                    newly_sacrificed.push_back(e);
                }
            }
            if (!ok) continue;
            int extra_penalty =
                options_.noise_penalty * static_cast<int>(newly_sacrificed.size());
            if (total + cost + extra_penalty >= best_cost_) {
                ++stats.pruned_branches;
                continue;
            }
            // Apply.
            std::vector<Mask> saved_pos = pos_alive_;
            std::vector<Mask> saved_neg = neg_left_;
            for (std::size_t e = 0; e < positive_.size(); ++e) pos_alive_[e] &= ~violates_pos_[c][e];
            for (std::size_t e = 0; e < negative_.size(); ++e) neg_left_[e] &= ~violates_neg_[c][e];
            for (auto e : newly_sacrificed) sacrificed_pos_[e] = 1;
            chosen_.push_back(c);
            search(current_cost + cost, penalty_cost + extra_penalty, stats);
            chosen_.pop_back();
            for (auto e : newly_sacrificed) sacrificed_pos_[e] = 0;
            pos_alive_ = std::move(saved_pos);
            neg_left_ = std::move(saved_neg);
        }
        // Noisy mode: abandon this negative example instead of covering it.
        if (noisy_ && total + options_.noise_penalty < best_cost_) {
            abandoned_neg_[target_e] = 1;
            search(current_cost, penalty_cost + options_.noise_penalty, stats);
            abandoned_neg_[target_e] = 0;
        }
    }

    const LearningTask& task_;
    const LearnOptions& options_;
    AtomTable atoms_;
    // production -> the distinct traces of its nodes -> their index
    std::unordered_map<int, std::map<Trace, std::size_t>> node_traces_;
    std::vector<ExampleWorlds> positive_;
    std::vector<ExampleWorlds> negative_;
    std::vector<std::vector<Mask>> violates_pos_;  // [candidate][example]
    std::vector<std::vector<Mask>> violates_neg_;
    std::vector<std::size_t> usable_;
    std::vector<Mask> pos_alive_;
    std::vector<Mask> neg_left_;
    std::vector<char> sacrificed_pos_;
    std::vector<char> abandoned_neg_;
    std::vector<std::size_t> chosen_;
    std::vector<std::size_t> best_choice_;
    int best_cost_ = 0;
    std::size_t best_violated_ = 0;
    bool noisy_ = false;
    bool budget_exhausted_ = false;
};

// ---------------------------------------------------------------------------
// General path: CEGIS + iterative-deepening subset search.
// ---------------------------------------------------------------------------

class GeneralLearner {
public:
    GeneralLearner(const LearningTask& task, const LearnOptions& options)
        : task_(task), options_(options) {}

    LearnResult run() {
        LearnResult result;
        result.stats.candidates = task_.space.candidates.size();

        // (example index, is_positive) pairs driving the inner search.
        std::vector<std::pair<std::size_t, bool>> relevant;

        while (true) {
            ++result.stats.cegis_iterations;
            auto hypothesis = inner_search(relevant, result.stats);
            if (!hypothesis) {
                result.failure_reason = budget_exhausted_
                                            ? "search budget exhausted"
                                            : "no hypothesis within bounds covers the relevant examples";
                return result;
            }
            auto violated = first_violated(*hypothesis, result.stats);
            if (!violated) {
                result.found = true;
                for (auto c : *hypothesis) {
                    const auto& cand = task_.space.candidates[c];
                    result.hypothesis.emplace_back(cand.rule, cand.production);
                    result.cost += cand.cost;
                }
                return result;
            }
            relevant.push_back(*violated);
        }
    }

private:
    bool covers(const std::vector<std::size_t>& subset, const Example& ex, bool want,
                LearnStats& stats) {
        Hypothesis h;
        for (auto c : subset) {
            h.emplace_back(task_.space.candidates[c].rule, task_.space.candidates[c].production);
        }
        auto grammar = task_.initial.with_rules(h);
        ++stats.coverage_checks;
        return asg::in_language(grammar, ex.string, ex.context, options_.membership) == want;
    }

    std::optional<std::pair<std::size_t, bool>> first_violated(const std::vector<std::size_t>& subset,
                                                               LearnStats& stats) {
        for (std::size_t e = 0; e < task_.positive.size(); ++e) {
            if (!covers(subset, task_.positive[e], true, stats)) return std::make_pair(e, true);
        }
        for (std::size_t e = 0; e < task_.negative.size(); ++e) {
            if (!covers(subset, task_.negative[e], false, stats)) return std::make_pair(e, false);
        }
        return std::nullopt;
    }

    bool consistent_with_relevant(const std::vector<std::size_t>& subset,
                                  const std::vector<std::pair<std::size_t, bool>>& relevant,
                                  LearnStats& stats) {
        for (const auto& [index, positive] : relevant) {
            const Example& ex = positive ? task_.positive[index] : task_.negative[index];
            if (!covers(subset, ex, positive, stats)) return false;
        }
        return true;
    }

    // Minimal-cost subset consistent with the relevant examples, found by
    // iterative deepening over exact total cost.
    std::optional<std::vector<std::size_t>> inner_search(
        const std::vector<std::pair<std::size_t, bool>>& relevant, LearnStats& stats) {
        for (int bound = 0; bound <= options_.max_cost; ++bound) {
            std::vector<std::size_t> subset;
            if (auto found = dfs(0, bound, subset, relevant, stats)) return found;
            if (budget_exhausted_) return std::nullopt;
        }
        return std::nullopt;
    }

    std::optional<std::vector<std::size_t>> dfs(
        std::size_t from, int remaining_cost, std::vector<std::size_t>& subset,
        const std::vector<std::pair<std::size_t, bool>>& relevant, LearnStats& stats) {
        if (++stats.search_nodes > options_.search_budget) {
            budget_exhausted_ = true;
            return std::nullopt;
        }
        if (remaining_cost == 0) {
            if (consistent_with_relevant(subset, relevant, stats)) return subset;
            return std::nullopt;
        }
        if (static_cast<int>(subset.size()) >= options_.max_rules) return std::nullopt;
        for (std::size_t c = from; c < task_.space.candidates.size(); ++c) {
            int cost = task_.space.candidates[c].cost;
            if (cost > remaining_cost) {
                ++stats.pruned_branches;
                continue;
            }
            subset.push_back(c);
            if (auto found = dfs(c + 1, remaining_cost - cost, subset, relevant, stats)) return found;
            subset.pop_back();
            if (budget_exhausted_) return std::nullopt;
        }
        return std::nullopt;
    }

    const LearningTask& task_;
    const LearnOptions& options_;
    bool budget_exhausted_ = false;
};

}  // namespace

namespace {

void publish_stats(const LearnResult& result) {
    if (!obs::metrics_enabled()) return;
    auto& m = obs::metrics();
    static obs::Counter& found = m.counter("ilp.learner.hypotheses_found");
    static obs::Counter& candidates = m.counter("ilp.learner.candidates_scored");
    static obs::Counter& coverage = m.counter("ilp.learner.coverage_checks");
    static obs::Counter& nodes = m.counter("ilp.learner.search_nodes");
    static obs::Counter& pruned = m.counter("ilp.learner.pruned_branches");
    static obs::Counter& cegis = m.counter("ilp.learner.cegis_iterations");
    if (result.found) found.add(1);
    candidates.add(result.stats.candidates);
    coverage.add(result.stats.coverage_checks);
    nodes.add(result.stats.search_nodes);
    pruned.add(result.stats.pruned_branches);
    cegis.add(result.stats.cegis_iterations);
}

}  // namespace

LearnResult learn(const LearningTask& task, const LearnOptions& options) {
    obs::Phase phase(obs::PhaseId::IlpLearn);
    LearnResult result = options.allow_fast_path && task.space.constraints_only()
                             ? FastPathLearner(task, options).run()
                             : GeneralLearner(task, options).run();
    if (result.stats.world_cap_hit) {
        // The fast path judged some example on only its first
        // max_worlds_per_example answer sets, so its answer is unverified
        // (Definition 3 quantifies over all of them). The general path
        // checks full membership; it has no noise tolerance.
        result = GeneralLearner(task, options).run();
        result.stats.world_cap_hit = true;
    }
    publish_stats(result);
    return result;
}

}  // namespace agenp::ilp
