// The inductive learner: finds a minimal-cost H ⊆ S_M such that every
// positive example's string is in L(G(C):H) and no negative example's is
// (Definition 3).
//
// Two engines (DESIGN.md section 5):
//  - Fast path, used when S_M is constraint-only: answer sets of the base
//    program are computed once per example world (parse tree × answer set)
//    and interned into one atom table; each candidate constraint is renamed
//    once per parse-tree node and decided at every world at once: its
//    ground literals by word operations over sets of worlds, its literals
//    with variables and its comparisons once per class of worlds that
//    agree on their predicates; the search is then an exact
//    branch-and-bound set cover over negative examples' worlds, with
//    positive examples' surviving-world masks as side constraints.
//  - General path: CEGIS over a growing relevant-example set with an inner
//    iterative-deepening subset search; coverage checks run full ASG
//    membership with the hypothesis spliced in. It also reruns any task
//    on which the fast path met an example with more answer sets than it
//    enumerates, since the fast path's answer is then unverified.
#pragma once

#include "asg/membership.hpp"
#include "ilp/task.hpp"

namespace agenp::ilp {

class SearchGuidance;  // ilp/guidance.hpp

struct LearnOptions {
    int max_rules = 4;        // hypothesis cardinality bound (general path)
    int max_cost = 24;        // total-cost bound
    std::size_t max_worlds_per_example = 32;  // answer sets enumerated per example (fast path)
    bool allow_fast_path = true;
    std::size_t search_budget = 5'000'000;  // branch-and-bound node budget
    // Noise tolerance (fast path only): when > 0, each example may be
    // sacrificed — left uncovered (negative) or killed (positive) — at this
    // cost, and the learner minimizes rule cost + penalties (the paper's
    // example-weighting discussion, Section IV.C). 0 = strict Definition 3.
    int noise_penalty = 0;
    // Optional statistical search guidance (Section V.C): candidates with
    // higher predicted usefulness are branched on first. Exactness is
    // unaffected; only the node count is. Not owned.
    const SearchGuidance* guidance = nullptr;
    asg::MembershipOptions membership;
};

struct LearnStats {
    std::size_t candidates = 0;
    // General path: one per membership check. Fast path: one per solved
    // parse tree, plus one per open-body evaluation (a node's literals with
    // variables and comparisons, run once per class of worlds they read
    // alike); ground literals are decided by word operations over all
    // worlds and are not counted.
    std::size_t coverage_checks = 0;
    std::size_t search_nodes = 0;
    std::size_t pruned_branches = 0;   // candidates skipped by the cost bound
    std::size_t cegis_iterations = 0;  // general path only
    bool used_fast_path = false;
    // The fast path met an example with more answer sets than it
    // enumerates; the result then comes from the general path.
    bool world_cap_hit = false;
};

struct LearnResult {
    bool found = false;
    Hypothesis hypothesis;
    int cost = 0;  // rule cost + noise penalties (when noise_penalty > 0)
    // Examples left uncovered by the returned hypothesis (noisy mode only;
    // always 0 under strict Definition 3).
    std::size_t violated_examples = 0;
    LearnStats stats;
    std::string failure_reason;  // set when !found

    [[nodiscard]] std::string hypothesis_to_string() const;
};

LearnResult learn(const LearningTask& task, const LearnOptions& options = {});

}  // namespace agenp::ilp
