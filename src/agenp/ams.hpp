// The Autonomous Managed System: assembles PIP, PReP, PDP/PEP, monitor,
// PAdaP, PCP and the repositories into the closed loop of Fig 2.
#pragma once

#include "agenp/context.hpp"
#include "agenp/padap.hpp"
#include "agenp/prep.hpp"

namespace agenp::framework {

struct AmsOptions {
    DecisionStrategy strategy = DecisionStrategy::Membership;
    PrepOptions prep;
    AdaptationOptions adaptation;
    asg::MembershipOptions membership;
    // Refresh the Policy Repository automatically whenever a new model is
    // adopted (needed by the Repository decision strategy).
    bool auto_refresh_policies = true;
    // Ring-buffer bound on the decision history (see DecisionMonitor).
    std::size_t monitor_capacity = DecisionMonitor::kDefaultCapacity;
};

// A model shared into the coalition (CASWiki-style, Section III.A.3).
struct SharedModel {
    std::string origin;
    asg::AnswerSetGrammar model;
    std::uint64_t version = 0;
};

class AutonomousManagedSystem {
public:
    AutonomousManagedSystem(std::string name, asg::AnswerSetGrammar initial,
                            ilp::HypothesisSpace space, AmsOptions options = {});

    [[nodiscard]] const std::string& name() const { return name_; }

    // --- context ---
    PolicyInformationPoint& pip() { return pip_; }
    ContextRepository& contexts() { return context_repo_; }
    [[nodiscard]] asp::Program current_context() const { return pip_.gather(); }

    // --- model ---
    // The GPM in force: latest learned representation, or the initial one.
    [[nodiscard]] const asg::AnswerSetGrammar& model() const;
    [[nodiscard]] std::uint64_t model_version() const { return representations_.latest_version(); }
    RepresentationsRepository& representations() { return representations_; }

    // --- decide / enforce ---
    // Decides `request` under the current context; records it; runs the
    // PEP. Returns (permitted, monitor index for later feedback).
    std::pair<bool, std::size_t> handle_request(const cfg::TokenString& request);

    // Pure decision under an explicit context snapshot: no PEP side effect,
    // no monitor record. The serving layer (src/srv) uses this so it can
    // cache the result; its history is its own flight ring and audit log.
    [[nodiscard]] bool decide(const cfg::TokenString& request, asp::Program context) const {
        return pdp_.decide(request, std::move(context), model(), policy_repo_);
    }

    // False when the index was evicted from (or never issued by) the
    // bounded monitor.
    [[nodiscard]] bool give_feedback(std::size_t decision_index, bool should_permit) {
        return monitor_.attach_feedback(decision_index, should_permit);
    }

    // The PDP strategy this AMS decides with (fixed at construction).
    [[nodiscard]] DecisionStrategy strategy() const { return pdp_.strategy(); }

    // Installs a grounding memo on the PDP's membership path (nullptr
    // removes it). The caller owns the memo and must keep its epoch in
    // step with model_version(); DecisionService does both.
    void set_grounding_memo(asg::GroundingMemo* memo) { pdp_.set_grounding_memo(memo); }

    PolicyEnforcementPoint& pep() { return pep_; }
    [[nodiscard]] const DecisionMonitor& monitor() const { return monitor_; }
    DecisionMonitor& monitor() { return monitor_; }
    PolicyRepository& policies() { return policy_repo_; }

    // --- learn / adapt ---
    // Learns a GPM from explicit examples (bootstrap or context change).
    AdaptationOutcome learn_model(const std::vector<ilp::Example>& positive,
                                  const std::vector<ilp::Example>& negative,
                                  const std::string& note = "bootstrap");

    // Monitor-driven adaptation (the PAdaP loop).
    AdaptationOutcome adapt();

    // Regenerates the Policy Repository from the current model + context.
    PrepReport refresh_policies();

    // --- coalition sharing ---
    [[nodiscard]] SharedModel export_model() const;
    // PCP-validates a partner's model against local forbidden strings
    // before adopting it.
    bool import_model(const SharedModel& shared);

private:
    void after_model_change();

    std::string name_;
    AmsOptions options_;
    PolicyInformationPoint pip_;
    ContextRepository context_repo_;
    RepresentationsRepository representations_;
    PolicyRepository policy_repo_;
    PolicyRefinementPoint prep_;
    PolicyDecisionPoint pdp_;
    PolicyEnforcementPoint pep_;
    DecisionMonitor monitor_;
    PolicyAdaptationPoint padap_;
};

}  // namespace agenp::framework
