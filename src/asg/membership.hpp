// Language membership for ASGs: s ∈ L(G(C)) iff some parse tree PT of the
// underlying CFG yields a satisfiable G(C)[PT] (Section II.A).
#pragma once

#include "asg/instantiate.hpp"
#include "asp/grounder.hpp"
#include "asp/solver.hpp"

namespace agenp::asg {

class GroundingMemo;

struct MembershipOptions {
    cfg::ParseOptions parse;
    asp::GroundingLimits grounding;
    asp::SolveOptions solve{.max_models = 1};
    // Optional grounding memo (see asg/memo.hpp): when set and the
    // grammar + context pass the memoizability gate, G[PT] fragments and
    // decisive solver verdicts are recalled instead of re-ground/re-solved.
    // Results are identical either way; the memo only changes the cost.
    GroundingMemo* memo = nullptr;
};

struct MembershipResult {
    bool in_language = false;
    int trees_checked = 0;
    // A solver budget ran out on some tree; a negative verdict is then
    // unreliable.
    bool resource_limited = false;
};

MembershipResult check_membership(const AnswerSetGrammar& grammar, const cfg::TokenString& tokens,
                                  const asp::Program& context = {},
                                  const MembershipOptions& options = {});

// The part of `context` a verdict can depend on. A context rule is kept iff
// it is a constraint, has a negated body literal, or its head predicate is
// in the read set. The read set starts as grammar.body_predicates() plus
// `extra_reads` and grows by the body predicates of every kept rule until
// nothing changes. Predicates match by name, whatever their @i, so one
// slice serves every node of G(C)[PT]. Kept rules keep their order; the
// rest are erased from `context` in place, so a caller that moves its
// context in copies no rule.
//
// Sound by the splitting set theorem (Lifschitz & Turner, ICLP 1994): every
// kept rule and annotation rule reads only read-set atoms, and every
// dropped rule is positive with an unread head. So the atoms of read-set
// predicates split G(C)[PT] with the kept part at the bottom; given one of
// its answer sets, the dropped part is a definite program and extends it in
// exactly one way. Hence s ∈ L(G(C)) iff s ∈ L(G(relevant_context(G, C))),
// and their answer sets correspond one to one with equal read-set atoms.
asp::Program relevant_context(const AnswerSetGrammar& grammar, asp::Program context,
                              const std::vector<util::Symbol>& extra_reads = {});

// G(C)[PT] cut to the rules a verdict can depend on: the rules of
// instantiate(grammar, tree, context) that a constraint or a rule with a
// negated literal reaches through rule bodies, in order. The closure is
// relevant_context's, seeded with nothing and matching the namespaced
// names instantiate gives every atom ("p@1.2"). Every dropped rule is
// definite and no kept rule reads its head, so by the argument above the
// result has an answer set iff G(C)[PT] has one.
asp::Program instantiate_relevant(const AnswerSetGrammar& grammar, const cfg::ParseNode& tree,
                                  const asp::Program& context);

// The verdict the PDP and the PCP serve: in_language(grammar, tokens,
// context), computed over less. It slices `context` with relevant_context
// and grounds and solves instantiate_relevant for each parse tree.
// Ignores options.memo.
bool accepts(const AnswerSetGrammar& grammar, const cfg::TokenString& tokens, asp::Program context,
             const MembershipOptions& options = {});

// Convenience wrapper.
bool in_language(const AnswerSetGrammar& grammar, const cfg::TokenString& tokens,
                 const asp::Program& context = {}, const MembershipOptions& options = {});

// The answer sets of G(C)[tree] for one parse tree; the learner's fast path
// uses this to evaluate candidate constraints against a fixed model.
asp::SolveResult solve_tree(const AnswerSetGrammar& grammar, const cfg::ParseNode& tree,
                            const asp::Program& context = {}, const MembershipOptions& options = {});

}  // namespace agenp::asg
