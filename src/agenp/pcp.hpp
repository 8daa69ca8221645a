// PCP (Policy Checking Point): quality assessment and violation detection
// (Sections III.A.2 and V.A).
//
// Quality metrics over rule-structured policies, following [14]:
//  - consistency: no two applicable rules give conflicting effects;
//  - relevance:   every rule applies to some request of the universe;
//  - minimality:  no rule can be removed without changing any decision;
//  - completeness: every request gets a Permit/Deny decision.
// Plus the coalition-specific "enforceability" indicator (a rule is
// enforceable when every attribute it conditions on is observable).
//
// The Violation Detector checks a generative model (or an externally shared
// one) against must-not-accept strings before it is adopted.
#pragma once

#include <functional>

#include "analysis/lint.hpp"
#include "asg/generate.hpp"
#include "asg/membership.hpp"
#include "ilp/task.hpp"
#include "xacml/evaluator.hpp"

namespace agenp::framework {

struct QualityReport {
    // Pairs of rule indices that both apply to some request with different
    // effects (under an order-insensitive reading).
    std::vector<std::pair<std::size_t, std::size_t>> conflicts;
    std::vector<std::size_t> irrelevant_rules;
    std::vector<std::size_t> redundant_rules;
    std::size_t uncovered_requests = 0;  // completeness gap

    [[nodiscard]] bool consistent() const { return conflicts.empty(); }
    [[nodiscard]] bool relevant() const { return irrelevant_rules.empty(); }
    [[nodiscard]] bool minimal() const { return redundant_rules.empty(); }
    [[nodiscard]] bool complete() const { return uncovered_requests == 0; }

    [[nodiscard]] std::string to_string() const;
};

struct EnforceabilityReport {
    // Rules conditioning on attributes outside the observable set.
    std::vector<std::size_t> unenforceable_rules;

    [[nodiscard]] bool enforceable() const { return unenforceable_rules.empty(); }
};

class PolicyCheckingPoint {
public:
    // Quality metrics of `policy` against a request universe (typically
    // xacml::enumerate_requests or a sample of the operating context).
    [[nodiscard]] static QualityReport assess(const xacml::XacmlPolicy& policy,
                                              const std::vector<xacml::Request>& universe);

    // Enforceability w.r.t. the attributes the AMS can actually observe.
    [[nodiscard]] static EnforceabilityReport assess_enforceability(
        const xacml::XacmlPolicy& policy, const std::vector<std::size_t>& observable_attributes);

    // --- risk (Section V.A's coalition-specific requirement) ---------------
    // Two-sided risk: permitting exposes assets; denying withholds utility
    // ("a restrictive access control policy may prevent the delivery of
    // relevant information needed by a party"). Costs are supplied per
    // request by a pluggable model.
    struct RiskModel {
        // Cost of this request being permitted (asset exposure).
        std::function<double(const xacml::Request&)> exposure = [](const auto&) { return 1.0; };
        // Cost of this request being denied or left undecided (missed
        // utility).
        std::function<double(const xacml::Request&)> denial_cost = [](const auto&) { return 1.0; };
    };

    struct RiskReport {
        double permit_exposure = 0;  // Σ exposure over permitted requests
        double denial_burden = 0;    // Σ denial_cost over denied/uncovered requests
        double max_exposure = 0;     // Σ exposure over the whole universe
        double max_burden = 0;       // Σ denial_cost over the whole universe

        // Normalized scores in [0, 1].
        [[nodiscard]] double exposure_ratio() const {
            return max_exposure == 0 ? 0 : permit_exposure / max_exposure;
        }
        [[nodiscard]] double burden_ratio() const {
            return max_burden == 0 ? 0 : denial_burden / max_burden;
        }
    };

    [[nodiscard]] static RiskReport assess_risk(const xacml::XacmlPolicy& policy,
                                                const std::vector<xacml::Request>& universe,
                                                const RiskModel& model);
    // Unit-cost model on both sides.
    [[nodiscard]] static RiskReport assess_risk(const xacml::XacmlPolicy& policy,
                                                const std::vector<xacml::Request>& universe) {
        return assess_risk(policy, universe, RiskModel{});
    }

    // --- static pre-adoption check (DESIGN.md §9) --------------------------
    // Lints the generative model itself: unsafe rules, undefined/unused
    // predicates, arity clashes, non-stratified negation, trivially
    // unsatisfiable constraints, unreachable/nonproductive productions.
    // Unlike detect_violations this needs no forbidden strings and runs in
    // milliseconds, so it is the cheap first gate before adoption;
    // Error-severity findings should block the model.
    [[nodiscard]] static analysis::DiagnosticSink lint_model(
        const asg::AnswerSetGrammar& model, const analysis::LintOptions& options = {});

    // Violation detector: forbidden strings the model must NOT accept, each
    // decided by the served verdict (asg::accepts).
    struct ViolationReport {
        std::vector<std::size_t> violated;  // indices into `forbidden`

        [[nodiscard]] bool valid() const { return violated.empty(); }
    };

    [[nodiscard]] static ViolationReport detect_violations(
        const asg::AnswerSetGrammar& model, const std::vector<ilp::Example>& forbidden,
        const asg::MembershipOptions& options = {});

    // --- native-GPM quality ------------------------------------------------
    // Minimality and relevance lifted to the generative model itself:
    //  - a hypothesis rule is redundant when removing it leaves L(G(C))
    //    unchanged for every supplied context;
    //  - a production is dead when no accepted string of any context uses
    //    it (grammar-level relevance).
    struct GpmQualityReport {
        std::vector<std::size_t> redundant_rules;  // indices into the hypothesis
        std::vector<int> dead_productions;
        std::size_t language_size = 0;  // accepted strings across all contexts
        bool truncated = false;         // an enumeration budget was hit

        [[nodiscard]] bool minimal() const { return redundant_rules.empty(); }
        [[nodiscard]] bool relevant() const { return dead_productions.empty(); }
    };

    [[nodiscard]] static GpmQualityReport assess_gpm(const asg::AnswerSetGrammar& initial,
                                                     const ilp::Hypothesis& hypothesis,
                                                     const std::vector<asp::Program>& contexts,
                                                     const asg::LanguageOptions& options = {});
};

}  // namespace agenp::framework
