#include "agenp/pcp.hpp"

#include <algorithm>
#include <set>

#include "obs/metrics.hpp"
#include "obs/phase.hpp"

namespace agenp::framework {

std::string QualityReport::to_string() const {
    std::string out;
    out += "consistency: " + std::string(consistent() ? "ok" : std::to_string(conflicts.size()) + " conflict(s)") + "\n";
    out += "relevance:   " + std::string(relevant() ? "ok" : std::to_string(irrelevant_rules.size()) + " irrelevant rule(s)") + "\n";
    out += "minimality:  " + std::string(minimal() ? "ok" : std::to_string(redundant_rules.size()) + " redundant rule(s)") + "\n";
    out += "completeness: " + std::string(complete() ? "ok" : std::to_string(uncovered_requests) + " uncovered request(s)") + "\n";
    return out;
}

QualityReport PolicyCheckingPoint::assess(const xacml::XacmlPolicy& policy,
                                          const std::vector<xacml::Request>& universe) {
    QualityReport report;
    const auto& rules = policy.rules;

    // Precompute per-rule applicability over the universe.
    std::vector<std::vector<bool>> applies(rules.size(), std::vector<bool>(universe.size(), false));
    for (std::size_t i = 0; i < rules.size(); ++i) {
        for (std::size_t r = 0; r < universe.size(); ++r) {
            applies[i][r] = policy.target.applies(universe[r]) && rules[i].target.applies(universe[r]);
        }
    }

    // Consistency: overlapping applicability with different effects. (The
    // combining algorithm resolves such conflicts at run time, but [14]
    // counts them as specification-quality defects.) Catch-all rules with
    // empty targets are deliberate defaults, not conflicting intent, and
    // are excluded.
    for (std::size_t i = 0; i < rules.size(); ++i) {
        if (rules[i].target.all_of.empty()) continue;
        for (std::size_t j = i + 1; j < rules.size(); ++j) {
            if (rules[j].target.all_of.empty()) continue;
            if (rules[i].effect == rules[j].effect) continue;
            for (std::size_t r = 0; r < universe.size(); ++r) {
                if (applies[i][r] && applies[j][r]) {
                    report.conflicts.emplace_back(i, j);
                    break;
                }
            }
        }
    }

    // Relevance.
    for (std::size_t i = 0; i < rules.size(); ++i) {
        bool any = false;
        for (std::size_t r = 0; r < universe.size() && !any; ++r) any = applies[i][r];
        if (!any) report.irrelevant_rules.push_back(i);
    }

    // Minimality: rule i is redundant when removing it leaves every
    // decision unchanged.
    std::vector<xacml::Decision> baseline(universe.size());
    for (std::size_t r = 0; r < universe.size(); ++r) baseline[r] = xacml::evaluate(policy, universe[r]);
    for (std::size_t i = 0; i < rules.size(); ++i) {
        xacml::XacmlPolicy without = policy;
        without.rules.erase(without.rules.begin() + static_cast<std::ptrdiff_t>(i));
        bool same = true;
        for (std::size_t r = 0; r < universe.size() && same; ++r) {
            same = xacml::evaluate(without, universe[r]) == baseline[r];
        }
        if (same) report.redundant_rules.push_back(i);
    }

    // Completeness.
    for (std::size_t r = 0; r < universe.size(); ++r) {
        if (baseline[r] != xacml::Decision::Permit && baseline[r] != xacml::Decision::Deny) {
            ++report.uncovered_requests;
        }
    }
    return report;
}

EnforceabilityReport PolicyCheckingPoint::assess_enforceability(
    const xacml::XacmlPolicy& policy, const std::vector<std::size_t>& observable_attributes) {
    EnforceabilityReport report;
    auto observable = [&](std::size_t attr) {
        return std::find(observable_attributes.begin(), observable_attributes.end(), attr) !=
               observable_attributes.end();
    };
    for (std::size_t i = 0; i < policy.rules.size(); ++i) {
        for (const auto& m : policy.rules[i].target.all_of) {
            if (!observable(m.attribute)) {
                report.unenforceable_rules.push_back(i);
                break;
            }
        }
    }
    return report;
}

PolicyCheckingPoint::RiskReport PolicyCheckingPoint::assess_risk(
    const xacml::XacmlPolicy& policy, const std::vector<xacml::Request>& universe,
    const RiskModel& model) {
    RiskReport report;
    for (const auto& r : universe) {
        double exposure = model.exposure(r);
        double burden = model.denial_cost(r);
        report.max_exposure += exposure;
        report.max_burden += burden;
        if (xacml::evaluate(policy, r) == xacml::Decision::Permit) {
            report.permit_exposure += exposure;
        } else {
            report.denial_burden += burden;
        }
    }
    return report;
}

PolicyCheckingPoint::GpmQualityReport PolicyCheckingPoint::assess_gpm(
    const asg::AnswerSetGrammar& initial, const ilp::Hypothesis& hypothesis,
    const std::vector<asp::Program>& contexts, const asg::LanguageOptions& options) {
    GpmQualityReport report;
    auto model = initial.with_rules(hypothesis);

    // Accepted strings per context for the full hypothesis.
    auto language_of = [&](const asg::AnswerSetGrammar& g) {
        std::vector<std::set<std::string>> out;
        for (const auto& ctx : contexts) {
            auto lang = asg::language(g, ctx, options);
            if (lang.truncated) report.truncated = true;
            std::set<std::string> strings;
            for (const auto& s : lang.strings) strings.insert(cfg::detokenize(s));
            out.push_back(std::move(strings));
        }
        return out;
    };
    auto baseline = language_of(model);
    for (const auto& s : baseline) report.language_size += s.size();

    // Minimality: leave-one-out language comparison.
    for (std::size_t i = 0; i < hypothesis.size(); ++i) {
        ilp::Hypothesis without;
        for (std::size_t j = 0; j < hypothesis.size(); ++j) {
            if (j != i) without.push_back(hypothesis[j]);
        }
        if (language_of(initial.with_rules(without)) == baseline) {
            report.redundant_rules.push_back(i);
        }
    }

    // Relevance: productions used by at least one accepted string.
    std::set<int> used;
    for (std::size_t c = 0; c < contexts.size(); ++c) {
        for (const auto& text : baseline[c]) {
            auto trees = cfg::parse_trees(model.grammar(), cfg::tokenize(text),
                                          options.membership.parse);
            for (const auto& tree : trees) {
                for (const auto& [trace, production] : asg::production_nodes(tree)) {
                    (void)trace;
                    used.insert(production);
                }
            }
        }
    }
    for (std::size_t p = 0; p < model.production_count(); ++p) {
        if (!used.contains(static_cast<int>(p))) report.dead_productions.push_back(static_cast<int>(p));
    }
    return report;
}

analysis::DiagnosticSink PolicyCheckingPoint::lint_model(const asg::AnswerSetGrammar& model,
                                                         const analysis::LintOptions& options) {
    obs::Phase phase(obs::PhaseId::PcpLintModel);
    auto sink = analysis::lint_asg(model, options);
    if (obs::metrics_enabled()) {
        auto& m = obs::metrics();
        static obs::Counter& errors = m.counter("agenp.pcp.lint_errors");
        errors.add(sink.count(analysis::Severity::Error));
    }
    return sink;
}

PolicyCheckingPoint::ViolationReport PolicyCheckingPoint::detect_violations(
    const asg::AnswerSetGrammar& model, const std::vector<ilp::Example>& forbidden,
    const asg::MembershipOptions& options) {
    obs::Phase phase(obs::PhaseId::PcpDetectViolations);

    ViolationReport report;
    for (std::size_t i = 0; i < forbidden.size(); ++i) {
        const auto& example = forbidden[i];
        if (asg::accepts(model, example.string, example.context, options)) {
            report.violated.push_back(i);
        }
    }
    if (obs::metrics_enabled()) {
        auto& m = obs::metrics();
        static obs::Counter& checks = m.counter("agenp.pcp.violation_checks");
        static obs::Counter& violations = m.counter("agenp.pcp.violations_found");
        checks.add(forbidden.size());
        violations.add(report.violated.size());
    }
    return report;
}

}  // namespace agenp::framework
