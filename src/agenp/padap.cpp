#include "agenp/padap.hpp"

#include <set>

#include "obs/metrics.hpp"
#include "obs/phase.hpp"

namespace agenp::framework {

namespace {

// maybe_adapt delegates to adapt_from_examples, so each counter is bumped
// at exactly one site: triggers in maybe_adapt, learn outcomes in
// adapt_from_examples. Monitor checks and learn attempts are the counts of
// phase_ns{phase="agenp.padap.maybe_adapt"} and {phase="agenp.padap.adapt"}.
void publish_outcome(const AdaptationOutcome& outcome) {
    if (!obs::metrics_enabled()) return;
    auto& m = obs::metrics();
    static obs::Counter& adapted = m.counter("agenp.padap.adapted");
    static obs::Counter& reused = m.counter("agenp.padap.reused");
    static obs::Counter& rejected = m.counter("agenp.padap.rejected");
    if (outcome.adapted) adapted.add(1);
    if (outcome.reused) reused.add(1);
    if (!outcome.adapted) rejected.add(1);
}

}  // namespace

AdaptationOutcome PolicyAdaptationPoint::maybe_adapt(const DecisionMonitor& monitor,
                                                     RepresentationsRepository& representations) {
    obs::Phase phase(obs::PhaseId::PadapMaybeAdapt);

    AdaptationOutcome outcome;
    auto records = monitor.feedback_records();
    if (records.size() < options_.min_feedback) {
        outcome.reason = "insufficient feedback (" + std::to_string(records.size()) + ")";
        return outcome;
    }
    auto accuracy = monitor.observed_accuracy();
    if (accuracy && *accuracy >= options_.accuracy_threshold) {
        outcome.reason = "observed accuracy acceptable";
        return outcome;
    }
    outcome.triggered = true;
    static obs::Counter& triggered = obs::metrics().counter("agenp.padap.triggered");
    if (obs::metrics_enabled()) triggered.add(1);

    std::vector<ilp::Example> positive, negative;
    for (const auto* r : records) {
        auto& bucket = *r->should_permit ? positive : negative;
        bucket.emplace_back(r->request, r->context);
    }
    auto result = adapt_from_examples(positive, negative, representations, "relearn-from-feedback");
    result.triggered = true;
    return result;
}

namespace {

// Cache signature for a batch of examples: the deduplicated union of their
// contexts.
asp::Program context_signature(const std::vector<ilp::Example>& positive,
                               const std::vector<ilp::Example>& negative) {
    asp::Program signature;
    std::set<std::string> seen;
    auto absorb = [&](const std::vector<ilp::Example>& examples) {
        for (const auto& ex : examples) {
            for (const auto& rule : ex.context.rules()) {
                if (seen.insert(rule.to_string()).second) signature.add(rule);
            }
        }
    };
    absorb(positive);
    absorb(negative);
    return signature;
}

}  // namespace

AdaptationOutcome PolicyAdaptationPoint::adapt_from_examples(
    const std::vector<ilp::Example>& positive, const std::vector<ilp::Example>& negative,
    RepresentationsRepository& representations, const std::string& note) {
    obs::Phase phase(obs::PhaseId::PadapAdapt);

    AdaptationOutcome outcome;
    ilp::LearningTask task;
    task.initial = initial_;
    task.space = space_;
    task.positive = positive;
    task.negative = negative;

    ilp::Hypothesis hypothesis;
    if (options_.use_similarity_cache) {
        auto cached = cache_.adapt(task, context_signature(positive, negative), options_.learn);
        outcome.reused = cached.reused;
        if (!cached.reused) {
            outcome.learn_result = cached.result;
            if (!outcome.learn_result.found) {
                outcome.reason = "learning failed: " + outcome.learn_result.failure_reason;
                publish_outcome(outcome);
                return outcome;
            }
        }
        hypothesis = std::move(cached.hypothesis);
    } else {
        outcome.learn_result = ilp::learn(task, options_.learn);
        if (!outcome.learn_result.found) {
            outcome.reason = "learning failed: " + outcome.learn_result.failure_reason;
            publish_outcome(outcome);
            return outcome;
        }
        hypothesis = outcome.learn_result.hypothesis;
    }
    auto candidate = initial_.with_rules(hypothesis);

    // Static lint gate: cheap structural rejection before membership checks.
    if (options_.static_lint) {
        auto lint_options = options_.lint;
        for (const auto* bucket : {&positive, &negative}) {
            for (const auto& ex : *bucket) {
                for (const auto& rule : ex.context.rules()) {
                    if (rule.head) lint_options.external_predicates.push_back(rule.head->predicate);
                }
            }
        }
        auto lint = PolicyCheckingPoint::lint_model(candidate, lint_options);
        if (lint.has_errors()) {
            static obs::Counter& lint_rejected =
                obs::metrics().counter("agenp.padap.lint_rejected");
            if (obs::metrics_enabled()) lint_rejected.add(1);
            const auto* first = lint.find_severity(analysis::Severity::Error);
            outcome.reason = "candidate model failed static lint (" +
                             std::to_string(lint.count(analysis::Severity::Error)) +
                             " error(s)): " + (first ? first->to_string() : "");
            publish_outcome(outcome);
            return outcome;
        }
    }

    // ASG Solver / PCP validation before adoption.
    auto violations = PolicyCheckingPoint::detect_violations(candidate, options_.forbidden,
                                                             options_.learn.membership);
    if (!violations.valid()) {
        outcome.reason = "candidate model accepts " + std::to_string(violations.violated.size()) +
                         " forbidden string(s); rejected";
        publish_outcome(outcome);
        return outcome;
    }
    outcome.adapted = true;
    outcome.new_version = representations.store(std::move(candidate), note);
    outcome.reason = "adopted";
    publish_outcome(outcome);
    return outcome;
}

}  // namespace agenp::framework
