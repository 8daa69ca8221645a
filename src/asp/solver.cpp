#include "asp/solver.hpp"

#include <algorithm>
#include <numeric>

#include "obs/metrics.hpp"
#include "obs/phase.hpp"

namespace agenp::asp {
namespace {

enum class Val : std::int8_t { Unknown, True, False };

// Accumulated locally during the search (plain size_t, no atomics on the
// hot path) and flushed once per solve() call.
void publish_stats(const SolverStats& s) {
    if (!obs::metrics_enabled()) return;
    auto& m = obs::metrics();
    static obs::Counter& decisions = m.counter("asp.solver.decisions");
    static obs::Counter& conflicts = m.counter("asp.solver.conflicts");
    static obs::Counter& propagations = m.counter("asp.solver.propagations");
    static obs::Counter& backtracks = m.counter("asp.solver.backtracks");
    static obs::Counter& stability = m.counter("asp.solver.stability_checks");
    static obs::Counter& models = m.counter("asp.solver.models");
    decisions.add(s.decisions);
    conflicts.add(s.conflicts);
    propagations.add(s.propagations);
    backtracks.add(s.backtracks);
    stability.add(s.stability_checks);
    models.add(s.models);
}

class SolverImpl {
public:
    explicit SolverImpl(const GroundProgram& gp) : gp_(gp) { build(); }

    SolveResult run(const SolveOptions& options) {
        SolveResult result = search(options);
        result.stats = stats_;
        result.stats.models = result.models.size();
        publish_stats(result.stats);
        return result;
    }

private:
    SolveResult search(const SolveOptions& options) {
        SolveResult result;
        if (!initial_propagate()) return result;  // conflict at root: unsatisfiable

        // Chronological DFS over atom assignments. Propagation prunes; the
        // stability check filters supported-but-unfounded assignments.
        struct Decision {
            std::size_t trail_mark;
            AtomId atom;
            bool tried_true;
        };
        std::vector<Decision> decisions;

        while (true) {
            if (conflict_) {
                ++stats_.conflicts;
                // Backtrack to the deepest decision with an untried branch.
                while (!decisions.empty() && decisions.back().tried_true) {
                    undo_to(decisions.back().trail_mark);
                    decisions.pop_back();
                    ++stats_.backtracks;
                }
                if (decisions.empty()) return result;
                auto& d = decisions.back();
                undo_to(d.trail_mark);
                d.tried_true = true;
                conflict_ = false;
                queue_.clear();
                qhead_ = 0;
                if (!assign(d.atom, Val::True) || !propagate()) conflict_ = true;
                continue;
            }

            if (assigned_ == natoms_) {
                ++stats_.stability_checks;
                if (is_stable()) {
                    result.models.push_back(extract_model());
                    if (options.max_models != 0 && result.models.size() >= options.max_models) {
                        return result;
                    }
                }
                conflict_ = true;  // force backtracking to continue enumeration
                continue;
            }

            if (++stats_.decisions > options.max_decisions) {
                result.exhausted = true;
                return result;
            }
            AtomId atom = pick_branch_atom();
            decisions.push_back({trail_.size(), atom, false});
            if (!assign(atom, Val::False) || !propagate()) conflict_ = true;
        }
    }

private:
    enum class Ev : std::uint8_t { Value, RemDec, Block, SupDec };
    struct Event {
        Ev type;
        std::int32_t index;
    };

    void build() {
        natoms_ = gp_.atom_count();
        const auto& rules = gp_.rules();
        nrules_ = rules.size();
        occ_pos_.resize(natoms_);
        occ_neg_.resize(natoms_);
        defs_.resize(natoms_);
        val_.assign(natoms_, Val::Unknown);
        remaining_.resize(nrules_);
        blocked_.assign(nrules_, 0);
        support_.assign(natoms_, 0);
        for (std::size_t r = 0; r < nrules_; ++r) {
            const auto& rule = rules[r];
            remaining_[r] = static_cast<int>(rule.pos.size() + rule.neg.size());
            for (auto a : rule.pos) occ_pos_[static_cast<std::size_t>(a)].push_back(static_cast<int>(r));
            for (auto a : rule.neg) occ_neg_[static_cast<std::size_t>(a)].push_back(static_cast<int>(r));
            if (rule.head != kNoHead) {
                defs_[static_cast<std::size_t>(rule.head)].push_back(static_cast<int>(r));
                ++support_[static_cast<std::size_t>(rule.head)];
            }
        }
        // Branch order: most-occurring atoms first (cheap VSIDS stand-in).
        branch_order_.resize(natoms_);
        std::iota(branch_order_.begin(), branch_order_.end(), 0);
        std::vector<std::size_t> score(natoms_, 0);
        for (std::size_t a = 0; a < natoms_; ++a) {
            score[a] = occ_pos_[a].size() + occ_neg_[a].size() + defs_[a].size();
        }
        std::stable_sort(branch_order_.begin(), branch_order_.end(),
                         [&](AtomId x, AtomId y) { return score[static_cast<std::size_t>(x)] > score[static_cast<std::size_t>(y)]; });
    }

    bool initial_propagate() {
        for (std::size_t a = 0; a < natoms_; ++a) {
            if (support_[a] == 0 && !assign(static_cast<AtomId>(a), Val::False)) return false;
        }
        for (std::size_t r = 0; r < nrules_; ++r) {
            if (remaining_[r] == 0 && !check_rule(static_cast<int>(r))) return false;
        }
        return propagate();
    }

    bool assign(AtomId a, Val v) {
        auto idx = static_cast<std::size_t>(a);
        if (val_[idx] != Val::Unknown) return val_[idx] == v;
        val_[idx] = v;
        ++assigned_;
        trail_.push_back({Ev::Value, a});
        queue_.push_back(a);
        return true;
    }

    bool propagate() {
        while (qhead_ < queue_.size()) {
            AtomId a = queue_[qhead_++];
            ++stats_.propagations;
            auto idx = static_cast<std::size_t>(a);
            if (val_[idx] == Val::True) {
                for (int r : occ_pos_[idx]) {
                    dec_remaining(r);
                    if (!check_rule(r)) return false;
                }
                for (int r : occ_neg_[idx]) {
                    if (!blocked_[static_cast<std::size_t>(r)] && !block(r)) return false;
                }
                // A true atom needs a support among its unblocked defs.
                if (support_[idx] == 0) return false;
                if (support_[idx] == 1 && !force_unique_support(a)) return false;
            } else {
                for (int r : occ_pos_[idx]) {
                    if (!blocked_[static_cast<std::size_t>(r)] && !block(r)) return false;
                }
                for (int r : occ_neg_[idx]) {
                    dec_remaining(r);
                    if (!check_rule(r)) return false;
                }
                // Head became false: its rules must not fire.
                for (int r : defs_[idx]) {
                    if (!check_rule(r)) return false;
                }
            }
        }
        return true;
    }

    void dec_remaining(int r) {
        --remaining_[static_cast<std::size_t>(r)];
        trail_.push_back({Ev::RemDec, r});
    }

    // Re-examines a rule after its counters or head changed. Fires the head
    // when the body is satisfied; forces the last unknown literal when the
    // rule must not fire (constraint, or head already false).
    bool check_rule(int r) {
        auto idx = static_cast<std::size_t>(r);
        if (blocked_[idx]) return true;
        const auto& rule = gp_.rules()[idx];
        if (remaining_[idx] == 0) {
            if (rule.head == kNoHead) return false;  // violated constraint
            return assign(rule.head, Val::True);
        }
        bool must_not_fire =
            rule.head == kNoHead || val_[static_cast<std::size_t>(rule.head)] == Val::False;
        if (must_not_fire && remaining_[idx] == 1) {
            // The single unknown literal must be falsified. (Any literal
            // that is assigned-but-unsatisfying would have blocked the rule.)
            for (auto a : rule.pos) {
                if (val_[static_cast<std::size_t>(a)] == Val::Unknown) return assign(a, Val::False);
            }
            for (auto a : rule.neg) {
                if (val_[static_cast<std::size_t>(a)] == Val::Unknown) return assign(a, Val::True);
            }
        }
        return true;
    }

    bool block(int r) {
        auto idx = static_cast<std::size_t>(r);
        blocked_[idx] = 1;
        trail_.push_back({Ev::Block, r});
        AtomId h = gp_.rules()[idx].head;
        if (h == kNoHead) return true;
        auto hidx = static_cast<std::size_t>(h);
        --support_[hidx];
        trail_.push_back({Ev::SupDec, h});
        if (support_[hidx] == 0) return assign(h, Val::False);
        if (support_[hidx] == 1 && val_[hidx] == Val::True) return force_unique_support(h);
        return true;
    }

    // `a` is true and has exactly one unblocked defining rule: that rule's
    // body must be satisfied.
    bool force_unique_support(AtomId a) {
        auto idx = static_cast<std::size_t>(a);
        for (int r : defs_[idx]) {
            auto ridx = static_cast<std::size_t>(r);
            if (blocked_[ridx]) continue;
            const auto& rule = gp_.rules()[ridx];
            for (auto p : rule.pos) {
                if (!assign(p, Val::True)) return false;
            }
            for (auto n : rule.neg) {
                if (!assign(n, Val::False)) return false;
            }
            return true;
        }
        return false;  // no unblocked def left; caller saw a stale count
    }

    void undo_to(std::size_t mark) {
        while (trail_.size() > mark) {
            Event e = trail_.back();
            trail_.pop_back();
            switch (e.type) {
                case Ev::Value:
                    val_[static_cast<std::size_t>(e.index)] = Val::Unknown;
                    --assigned_;
                    break;
                case Ev::RemDec:
                    ++remaining_[static_cast<std::size_t>(e.index)];
                    break;
                case Ev::Block:
                    blocked_[static_cast<std::size_t>(e.index)] = 0;
                    break;
                case Ev::SupDec:
                    ++support_[static_cast<std::size_t>(e.index)];
                    break;
            }
        }
        queue_.clear();
        qhead_ = 0;
    }

    AtomId pick_branch_atom() const {
        for (AtomId a : branch_order_) {
            if (val_[static_cast<std::size_t>(a)] == Val::Unknown) return a;
        }
        return 0;  // unreachable: callers check assigned_ < natoms_
    }

    // Least model of the reduct w.r.t. the current total assignment must
    // reproduce exactly the true atoms.
    bool is_stable() {
        const auto& rules = gp_.rules();
        std::vector<int> cnt(nrules_);
        std::vector<char> in_l(natoms_, 0);
        std::vector<char> eligible(nrules_, 0);
        std::vector<AtomId> work;
        for (std::size_t r = 0; r < nrules_; ++r) {
            const auto& rule = rules[r];
            if (rule.head == kNoHead) continue;
            bool ok = true;
            for (auto q : rule.neg) {
                if (val_[static_cast<std::size_t>(q)] != Val::False) {
                    ok = false;
                    break;
                }
            }
            if (!ok) continue;
            eligible[r] = 1;
            cnt[r] = static_cast<int>(rule.pos.size());
            if (cnt[r] == 0 && !in_l[static_cast<std::size_t>(rule.head)]) {
                in_l[static_cast<std::size_t>(rule.head)] = 1;
                work.push_back(rule.head);
            }
        }
        while (!work.empty()) {
            AtomId a = work.back();
            work.pop_back();
            for (int r : occ_pos_[static_cast<std::size_t>(a)]) {
                auto ridx = static_cast<std::size_t>(r);
                if (!eligible[ridx]) continue;
                if (--cnt[ridx] == 0) {
                    AtomId h = rules[ridx].head;
                    if (!in_l[static_cast<std::size_t>(h)]) {
                        in_l[static_cast<std::size_t>(h)] = 1;
                        work.push_back(h);
                    }
                }
            }
        }
        for (std::size_t a = 0; a < natoms_; ++a) {
            if (val_[a] == Val::True && !in_l[a]) return false;
        }
        return true;
    }

    Model extract_model() const {
        Model m;
        for (std::size_t a = 0; a < natoms_; ++a) {
            if (val_[a] == Val::True) m.push_back(static_cast<AtomId>(a));
        }
        return m;
    }

    const GroundProgram& gp_;
    std::size_t natoms_ = 0;
    std::size_t nrules_ = 0;
    std::vector<std::vector<int>> occ_pos_, occ_neg_, defs_;
    std::vector<Val> val_;
    std::vector<int> remaining_;
    std::vector<char> blocked_;
    std::vector<int> support_;
    std::vector<AtomId> branch_order_;
    std::vector<Event> trail_;
    std::vector<AtomId> queue_;
    std::size_t qhead_ = 0;
    std::size_t assigned_ = 0;
    SolverStats stats_;
    bool conflict_ = false;
};

}  // namespace

Solver::Solver(const GroundProgram& program) : program_(program) {}

SolveResult Solver::solve(const SolveOptions& options) { return asp::solve(program_, options); }

bool Solver::satisfiable() { return solve({.max_models = 1}).satisfiable(); }

SolveResult solve(const GroundProgram& program, const SolveOptions& options) {
    obs::Phase phase(obs::PhaseId::AspSolve);
    return SolverImpl(program).run(options);
}

bool satisfiable(const GroundProgram& program) {
    return solve(program, {.max_models = 1}).satisfiable();
}

std::vector<std::string> model_to_strings(const GroundProgram& program, const Model& model) {
    std::vector<std::string> out;
    out.reserve(model.size());
    for (auto id : model) out.push_back(program.atom(id).to_string());
    std::sort(out.begin(), out.end());
    return out;
}

}  // namespace agenp::asp
