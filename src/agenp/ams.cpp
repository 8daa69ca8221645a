#include "agenp/ams.hpp"

#include "obs/metrics.hpp"
#include "obs/phase.hpp"

namespace agenp::framework {

AutonomousManagedSystem::AutonomousManagedSystem(std::string name, asg::AnswerSetGrammar initial,
                                                 ilp::HypothesisSpace space, AmsOptions options)
    : name_(std::move(name)),
      options_(std::move(options)),
      prep_(options_.prep),
      pdp_(options_.strategy, options_.membership),
      monitor_(options_.monitor_capacity),
      padap_(std::move(initial), std::move(space), options_.adaptation) {}

const asg::AnswerSetGrammar& AutonomousManagedSystem::model() const {
    return representations_.empty() ? padap_.initial_model() : representations_.latest();
}

std::pair<bool, std::size_t> AutonomousManagedSystem::handle_request(const cfg::TokenString& request) {
    obs::Phase phase(obs::PhaseId::AmsHandleRequest);

    asp::Program context = pip_.gather();
    bool permitted = pdp_.decide(request, context, model(), policy_repo_);
    pep_.enforce(request, permitted);
    DecisionRecord record;
    record.request = request;
    record.context = std::move(context);
    record.permitted = permitted;
    record.model_version = model_version();
    std::size_t index = monitor_.record(std::move(record));
    return {permitted, index};
}

AdaptationOutcome AutonomousManagedSystem::learn_model(const std::vector<ilp::Example>& positive,
                                                       const std::vector<ilp::Example>& negative,
                                                       const std::string& note) {
    auto outcome = padap_.adapt_from_examples(positive, negative, representations_, note);
    if (outcome.adapted) after_model_change();
    return outcome;
}

AdaptationOutcome AutonomousManagedSystem::adapt() {
    auto outcome = padap_.maybe_adapt(monitor_, representations_);
    if (outcome.adapted) after_model_change();
    return outcome;
}

PrepReport AutonomousManagedSystem::refresh_policies() {
    return prep_.refresh(model(), pip_.gather(), policy_repo_, model_version());
}

void AutonomousManagedSystem::after_model_change() {
    if (options_.auto_refresh_policies && options_.strategy == DecisionStrategy::Repository) {
        refresh_policies();
    }
}

SharedModel AutonomousManagedSystem::export_model() const {
    return {name_, model(), model_version()};
}

bool AutonomousManagedSystem::import_model(const SharedModel& shared) {
    auto violations = PolicyCheckingPoint::detect_violations(
        shared.model, options_.adaptation.forbidden, options_.membership);
    if (!violations.valid()) return false;
    representations_.store(shared.model, "shared:" + shared.origin);
    after_model_change();
    return true;
}

}  // namespace agenp::framework
