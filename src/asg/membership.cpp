#include "asg/membership.hpp"

#include <algorithm>

#include "asg/memo.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"

namespace agenp::asg {

namespace {

// Flushed once per membership query; the per-tree loop stays atomics-free.
void publish(const MembershipResult& result, std::size_t asp_checks) {
    if (!obs::metrics_enabled()) return;
    auto& m = obs::metrics();
    static obs::Counter& trees = m.counter("asg.membership.trees_checked");
    static obs::Counter& solver_calls = m.counter("asg.membership.asp_checks");
    static obs::Counter& accepted = m.counter("asg.membership.accepted");
    static obs::Counter& limited = m.counter("asg.membership.resource_limited");
    trees.add(static_cast<std::uint64_t>(result.trees_checked));
    solver_calls.add(asp_checks);
    if (result.in_language) accepted.add(1);
    if (result.resource_limited) limited.add(1);
}

// Keeps, in place and in order, the rules of `rules` a verdict can depend
// on: every constraint, every rule with a negated body literal, and every
// rule whose head predicate is in the read set. The read set starts as
// `read` (sorted, deduplicated) and grows by the body predicates of every
// kept rule until nothing changes. Predicates match on atom.predicate:
// the bare name in a context rule, whatever its @i, and the namespaced
// name ("p@1.2") in a rule of G(C)[PT].
void keep_read_rules(std::vector<asp::Rule>& rules, std::vector<util::Symbol> read) {
    auto reads = [&](util::Symbol p) { return std::binary_search(read.begin(), read.end(), p); };
    std::vector<util::Symbol> pending;  // newly read predicates, not yet closed over
    std::vector<char> kept(rules.size(), 0);
    auto keep = [&](std::size_t i) {
        kept[i] = 1;
        for (const auto& literal : rules[i].body) {
            util::Symbol p = literal.atom.predicate;
            auto it = std::lower_bound(read.begin(), read.end(), p);
            if (it != read.end() && *it == p) continue;
            read.insert(it, p);
            pending.push_back(p);
        }
    };
    // One pass over the rules; a skipped rule is indexed by its head
    // predicate, so the closure below visits each rule at most once more.
    std::vector<std::pair<util::Symbol, std::size_t>> skipped;
    for (std::size_t i = 0; i < rules.size(); ++i) {
        const auto& rule = rules[i];
        bool negated = std::any_of(rule.body.begin(), rule.body.end(),
                                   [](const asp::Literal& l) { return !l.positive; });
        if (rule.is_constraint() || negated || reads(rule.head->predicate)) {
            keep(i);
        } else {
            skipped.emplace_back(rule.head->predicate, i);
        }
    }
    if (!pending.empty() && !skipped.empty()) {
        std::sort(skipped.begin(), skipped.end());
        while (!pending.empty()) {
            util::Symbol p = pending.back();
            pending.pop_back();
            auto it = std::lower_bound(skipped.begin(), skipped.end(), std::pair(p, std::size_t{0}));
            for (; it != skipped.end() && it->first == p; ++it) {
                if (!kept[it->second]) keep(it->second);
            }
        }
    }
    // Compact in place: a caller that hands over its rules copies nothing.
    std::size_t out = 0;
    for (std::size_t i = 0; i < rules.size(); ++i) {
        if (!kept[i]) continue;
        if (out != i) rules[out] = std::move(rules[i]);
        ++out;
    }
    rules.erase(rules.begin() + static_cast<std::ptrdiff_t>(out), rules.end());
}

}  // namespace

MembershipResult check_membership(const AnswerSetGrammar& grammar, const cfg::TokenString& tokens,
                                  const asp::Program& context, const MembershipOptions& options) {
    obs::Phase phase(obs::PhaseId::AsgMembership);

    MembershipResult result;
    std::size_t asp_checks = 0;
    auto trees = cfg::parse_trees(grammar.grammar(), tokens, options.parse);
    // One memo view per query: the gate and the context fingerprint are
    // computed once; `usable()` is false when no memo was supplied or the
    // gate rejected this grammar + context (plain path below).
    MemoizedGrounding memoized(options.memo, grammar, context, options.grounding);
    for (const auto& tree : trees) {
        ++result.trees_checked;
        asp::SolveResult solved;
        if (memoized.usable() && !tree.is_leaf()) {
            MemoizedGrounding::Root root;
            {
                obs::Phase probe(obs::PhaseId::AsgMemoProbe);
                root = memoized.ground_root(tree);
            }
            if (root.verdict.has_value()) {
                if (*root.verdict) {
                    result.in_language = true;
                    publish(result, asp_checks);
                    return result;
                }
                continue;
            }
            solved = asp::solve(*root.program, options.solve);
            ++asp_checks;
            // A resource-limited verdict is not decisive — memoizing it
            // would freeze `resource_limited` semantics into the cache.
            if (!solved.exhausted) memoized.store_verdict(root, solved.satisfiable());
        } else {
            asp::Program program = instantiate(grammar, tree, context);
            solved = asp::solve(asp::ground(program, options.grounding), options.solve);
            ++asp_checks;
        }
        if (solved.satisfiable()) {
            result.in_language = true;
            publish(result, asp_checks);
            return result;
        }
        if (solved.exhausted) result.resource_limited = true;
    }
    publish(result, asp_checks);
    return result;
}

asp::Program relevant_context(const AnswerSetGrammar& grammar, asp::Program context,
                              const std::vector<util::Symbol>& extra_reads) {
    std::vector<util::Symbol> read = grammar.body_predicates();  // kept sorted
    if (!extra_reads.empty()) {
        read.insert(read.end(), extra_reads.begin(), extra_reads.end());
        std::sort(read.begin(), read.end());
        read.erase(std::unique(read.begin(), read.end()), read.end());
    }
    keep_read_rules(context.rules(), std::move(read));
    return context;
}

asp::Program instantiate_relevant(const AnswerSetGrammar& grammar, const cfg::ParseNode& tree,
                                  const asp::Program& context) {
    asp::Program program = instantiate(grammar, tree, context);
    keep_read_rules(program.rules(), {});
    return program;
}

bool accepts(const AnswerSetGrammar& grammar, const cfg::TokenString& tokens, asp::Program context,
             const MembershipOptions& options) {
    obs::Phase phase(obs::PhaseId::AsgMembership);

    MembershipResult result;
    std::size_t asp_checks = 0;
    asp::Program relevant = relevant_context(grammar, std::move(context));
    for (const auto& tree : cfg::parse_trees(grammar.grammar(), tokens, options.parse)) {
        ++result.trees_checked;
        asp::Program program = instantiate_relevant(grammar, tree, relevant);
        auto solved = asp::solve(asp::ground(program, options.grounding), options.solve);
        ++asp_checks;
        if (solved.satisfiable()) {
            result.in_language = true;
            break;
        }
        if (solved.exhausted) result.resource_limited = true;
    }
    publish(result, asp_checks);
    return result.in_language;
}

bool in_language(const AnswerSetGrammar& grammar, const cfg::TokenString& tokens,
                 const asp::Program& context, const MembershipOptions& options) {
    return check_membership(grammar, tokens, context, options).in_language;
}

asp::SolveResult solve_tree(const AnswerSetGrammar& grammar, const cfg::ParseNode& tree,
                            const asp::Program& context, const MembershipOptions& options) {
    asp::Program program = instantiate(grammar, tree, context);
    auto gp = asp::ground(program, options.grounding);
    return asp::solve(gp, options.solve);
}

}  // namespace agenp::asg
