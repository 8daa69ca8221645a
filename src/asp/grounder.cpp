#include "asp/grounder.hpp"

#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "asp/substitution.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"

namespace agenp::asp {
namespace {

// Order-sensitive structural hash of a pending instance; dedupe compares
// the full rule on collision, so the hash only has to spread.
std::uint64_t instance_hash(const AtomRule& rule) {
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    mix(rule.head ? rule.head->hash() : 0x68656164ull);
    mix(0x706f73ull);
    for (const auto& a : rule.pos) mix(a.hash());
    mix(0x6e6567ull);
    for (const auto& a : rule.neg) mix(a.hash());
    return h;
}

// Atoms derived so far, indexed by predicate for matching. Each
// predicate's atoms carry two boundaries so the semi-naive rounds can
// address the "old" span [0, old_end) and the "delta" span
// [old_end, cur_end); atoms appended during the running round land beyond
// cur_end and form the next delta.
class DerivedAtoms {
public:
    bool contains(const Atom& a) const { return known_.contains(a); }

    // New atoms are staged and only appended to the per-predicate lists at
    // round boundaries: match_from holds raw pointers into those lists, so
    // appending mid-round would invalidate them. Returns true when the atom
    // was not already known.
    bool add(const Atom& a) {
        if (!known_.insert(a).second) return false;
        staging_.push_back(a);
        ++total_;
        return true;
    }

    [[nodiscard]] std::size_t total() const { return total_; }

    struct Span {
        const Atom* begin = nullptr;
        const Atom* end = nullptr;
    };

    enum class Range { Old, Delta, All };

    Span span(Symbol pred, Range range) const {
        auto it = by_pred_.find(pred.id());
        if (it == by_pred_.end()) return {};
        const PredAtoms& p = it->second;
        const Atom* base = p.atoms.data();
        switch (range) {
            case Range::Old:
                return {base, base + p.old_end};
            case Range::Delta:
                return {base + p.old_end, base + p.cur_end};
            case Range::All:
                return {base, base + p.cur_end};
        }
        return {};
    }

    // Closes the round: flushes staged atoms, then old <- previous
    // old+delta, delta <- the flushed atoms. Returns true if the new delta
    // is non-empty for any predicate.
    bool advance_round() {
        for (auto& a : staging_) by_pred_[a.predicate.id()].atoms.push_back(std::move(a));
        staging_.clear();
        bool any = false;
        for (auto& [pred, p] : by_pred_) {
            p.old_end = p.cur_end;
            p.cur_end = p.atoms.size();
            if (p.cur_end > p.old_end) any = true;
        }
        return any;
    }

private:
    struct PredAtoms {
        std::vector<Atom> atoms;
        std::size_t old_end = 0;
        std::size_t cur_end = 0;
    };

    std::unordered_set<Atom> known_;
    std::vector<Atom> staging_;
    std::unordered_map<std::uint32_t, PredAtoms> by_pred_;
    std::size_t total_ = 0;
};

class GrounderImpl {
public:
    GrounderImpl(const Program& program, const GroundingLimits& limits)
        : program_(program), limits_(limits) {}

    GroundProgram run() {
        instantiate();
        return finalize();
    }

    SeededGrounding run_seeded(const std::vector<Atom>& seeds) {
        collect_new_ = true;
        for (const auto& a : seeds) derived_.add(a);
        instantiate();
        return finalize_seeded();
    }

private:
    void instantiate() {
        obs::Phase phase(obs::PhaseId::AspGround);

        check_safety();

        // Round 0: rules with no positive body literals fire exactly once.
        for (const auto& rule : program_.rules()) {
            if (positive_count(rule) == 0) {
                Subst subst;
                finish_instance(rule, subst);
            }
        }

        // Semi-naive rounds: each instantiation must use at least one delta
        // atom in its positive body (pivot position j). Seeds (when present)
        // were staged before round 0 and join the first delta here.
        std::size_t rounds = 0;
        while (derived_.advance_round()) {
            ++rounds;
            for (const auto& rule : program_.rules()) {
                int pcount = positive_count(rule);
                for (int pivot = 0; pivot < pcount; ++pivot) {
                    Subst subst;
                    match_from(rule, 0, pivot, subst);
                }
            }
        }
        derived_.advance_round();  // flush atoms from the final round into "all"

        publish(rounds);
    }
    // Rejects unsafe rules with one ASP001 diagnostic per unbound variable
    // (rule index + variable name + rule text), gathered across the whole
    // program before throwing so callers see every offender at once.
    void check_safety() const {
        std::vector<analysis::Diagnostic> diags;
        for (std::size_t i = 0; i < program_.rules().size(); ++i) {
            const Rule& rule = program_.rules()[i];
            for (Symbol v : rule.unsafe_variables()) {
                analysis::Diagnostic d;
                d.code = analysis::codes::kUnsafeVariable;
                d.severity = analysis::Severity::Error;
                d.message = "unsafe variable " + std::string(v.str()) +
                            " is not bound by any positive body literal";
                d.hint = "add a positive body literal (or a V = ground-expr binder) covering " +
                         std::string(v.str());
                d.location.rule = static_cast<int>(i);
                d.location.context = rule.to_string();
                diags.push_back(std::move(d));
            }
        }
        if (diags.empty()) return;
        std::string message = "unsafe program: ";
        for (std::size_t i = 0; i < diags.size(); ++i) {
            if (i > 0) message += "; ";
            message += diags[i].to_string();
        }
        throw GroundingError(message, std::move(diags));
    }

    static int positive_count(const Rule& rule) {
        int n = 0;
        for (const auto& l : rule.body) {
            if (l.positive) ++n;
        }
        return n;
    }

    // Returns the index-th positive literal of the rule.
    static const Atom& positive_literal(const Rule& rule, int index) {
        int n = 0;
        for (const auto& l : rule.body) {
            if (l.positive && n++ == index) return l.atom;
        }
        throw GroundingError("internal: positive literal index out of range");
    }

    void match_from(const Rule& rule, int index, int pivot, Subst& subst) {
        if (index == positive_count(rule)) {
            finish_instance(rule, subst);
            return;
        }
        const Atom& pattern = positive_literal(rule, index);
        auto range = index == pivot   ? DerivedAtoms::Range::Delta
                     : index < pivot ? DerivedAtoms::Range::Old
                                     : DerivedAtoms::Range::All;
        auto span = derived_.span(pattern.predicate, range);
        for (const Atom* a = span.begin; a != span.end; ++a) {
            std::size_t mark = subst.size();
            if (match_atom(pattern, *a, subst)) {
                match_from(rule, index + 1, pivot, subst);
            }
            subst.truncate(mark);
        }
    }

    // Evaluates builtins (with `V = ground-expr` acting as a binder),
    // grounds negatives and the head, and emits the instance.
    void finish_instance(const Rule& rule, Subst& subst) {
        std::size_t mark = subst.size();
        if (!evaluate_builtins(rule.builtins, subst)) {
            subst.truncate(mark);
            return;
        }

        AtomRule pending;
        for (const auto& l : rule.body) {
            Atom ground_atom = apply_subst(l.atom, subst);
            if (!ground_atom.is_ground()) {
                throw GroundingError("internal: non-ground literal after substitution in " + rule.to_string());
            }
            (l.positive ? pending.pos : pending.neg).push_back(std::move(ground_atom));
        }
        if (rule.head) {
            Atom head = apply_subst(*rule.head, subst);
            if (!head.is_ground()) {
                throw GroundingError("internal: non-ground head after substitution in " + rule.to_string());
            }
            if (derived_.add(head) && collect_new_) new_atoms_.push_back(head);
            if (derived_.total() > limits_.max_atoms) {
                throw GroundingError("grounding exceeded max_atoms limit");
            }
            pending.head = std::move(head);
        }

        // Hash-indexed dedupe: structurally identical instances collapse
        // without building a key string per instance.
        std::uint64_t h = instance_hash(pending);
        auto [first, last] = seen_rules_.equal_range(h);
        bool duplicate = false;
        for (auto it = first; it != last; ++it) {
            if (pending_[it->second] == pending) {
                duplicate = true;
                break;
            }
        }
        if (!duplicate) {
            seen_rules_.emplace(h, static_cast<std::uint32_t>(pending_.size()));
            pending_.push_back(std::move(pending));
            if (pending_.size() > limits_.max_rules) {
                throw GroundingError("grounding exceeded max_rules limit");
            }
        }
        subst.truncate(mark);
    }

    bool evaluate_builtins(const std::vector<Comparison>& builtins, Subst& subst) {
        // A member buffer: this runs once per candidate instance, so a
        // fresh vector here would allocate once per instance.
        builtin_done_.assign(builtins.size(), 0);
        auto& done = builtin_done_;
        bool progress = true;
        std::size_t remaining = builtins.size();
        while (progress && remaining > 0) {
            progress = false;
            for (std::size_t i = 0; i < builtins.size(); ++i) {
                if (done[i]) continue;
                Term lhs = apply_subst(builtins[i].lhs, subst);
                Term rhs = apply_subst(builtins[i].rhs, subst);
                if (builtins[i].op == Comparison::Op::Eq && lhs.is_variable() && rhs.is_ground()) {
                    auto value = evaluate_arithmetic(rhs);
                    if (!value) return false;
                    subst.bind(lhs.symbol(), *value);
                } else if (lhs.is_ground() && rhs.is_ground()) {
                    auto result = Comparison(builtins[i].op, lhs, rhs).evaluate();
                    if (!result || !*result) return false;
                } else {
                    continue;  // wait for more bindings
                }
                done[i] = true;
                --remaining;
                progress = true;
            }
        }
        // Safety guarantees every builtin eventually grounds.
        return remaining == 0;
    }

    GroundProgram finalize() {
        GroundProgram gp;
        for (const auto& pending : pending_) {
            GroundRule rule;
            bool dropped = false;
            for (const auto& a : pending.neg) {
                if (!derived_.contains(a)) continue;  // atom underivable: "not a" trivially true
                rule.neg.push_back(gp.intern(a));
            }
            for (const auto& a : pending.pos) {
                if (!derived_.contains(a)) {  // defensive; cannot happen by construction
                    dropped = true;
                    break;
                }
                rule.pos.push_back(gp.intern(a));
            }
            if (dropped) continue;
            if (pending.head) rule.head = gp.intern(*pending.head);
            gp.add_rule(std::move(rule));
        }
        return gp;
    }

    // Atom-form finalize for compositional grounding: same negative-literal
    // simplification as `finalize` (sound because the memo only composes
    // fragments whose derivable sets are closed — see GroundingMemo), but
    // rules stay as atoms so the caller can relocate their namespace.
    SeededGrounding finalize_seeded() {
        SeededGrounding out;
        out.rules.reserve(pending_.size());
        for (auto& pending : pending_) {
            AtomRule rule;
            rule.head = std::move(pending.head);
            rule.pos = std::move(pending.pos);
            rule.neg.reserve(pending.neg.size());
            for (auto& a : pending.neg) {
                if (derived_.contains(a)) rule.neg.push_back(std::move(a));
            }
            out.rules.push_back(std::move(rule));
        }
        out.new_atoms = std::move(new_atoms_);
        return out;
    }

    // One flush per grounding keeps the instantiation loops atomics-free.
    void publish(std::size_t rounds) const {
        if (!obs::metrics_enabled()) return;
        auto& m = obs::metrics();
        static obs::Counter& rules = m.counter("asp.grounder.rules");
        static obs::Counter& atoms = m.counter("asp.grounder.atoms");
        static obs::Counter& round_counter = m.counter("asp.grounder.rounds");
        rules.add(pending_.size());
        atoms.add(derived_.total());
        round_counter.add(rounds);
    }

    const Program& program_;
    GroundingLimits limits_;
    DerivedAtoms derived_;
    std::vector<AtomRule> pending_;
    // instance hash -> slot into pending_, one node per kept instance
    std::unordered_multimap<std::uint64_t, std::uint32_t> seen_rules_;
    std::vector<char> builtin_done_;
    bool collect_new_ = false;
    std::vector<Atom> new_atoms_;
};

}  // namespace

GroundProgram ground(const Program& program, const GroundingLimits& limits) {
    return GrounderImpl(program, limits).run();
}

SeededGrounding ground_seeded(const Program& program, const std::vector<Atom>& seeds,
                              const GroundingLimits& limits) {
    return GrounderImpl(program, limits).run_seeded(seeds);
}

}  // namespace agenp::asp
