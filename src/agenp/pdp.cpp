#include "agenp/pdp.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.hpp"
#include "obs/phase.hpp"

namespace agenp::framework {

std::optional<double> DecisionMonitor::observed_accuracy() const {
    std::size_t with_feedback = 0;
    std::size_t correct = 0;
    for (const auto& r : history_) {
        if (!r.should_permit) continue;
        ++with_feedback;
        if (*r.should_permit == r.permitted) ++correct;
    }
    if (with_feedback == 0) return std::nullopt;
    return static_cast<double>(correct) / static_cast<double>(with_feedback);
}

std::vector<const DecisionRecord*> DecisionMonitor::feedback_records() const {
    std::vector<const DecisionRecord*> out;
    for (const auto& r : history_) {
        if (r.should_permit) out.push_back(&r);
    }
    return out;
}

std::string DecisionMonitor::render_audit(std::size_t last_n) const {
    std::string out;
    std::size_t permitted = 0, with_feedback = 0, correct = 0;
    std::uint64_t latest_version = 0;
    for (const auto& r : history_) {
        permitted += r.permitted;
        latest_version = std::max(latest_version, r.model_version);
        if (r.should_permit) {
            ++with_feedback;
            correct += *r.should_permit == r.permitted;
        }
    }
    std::size_t stale = 0;
    for (const auto& r : history_) stale += r.model_version != latest_version;

    std::size_t start = last_n == 0 || last_n >= history_.size() ? 0 : history_.size() - last_n;
    for (std::size_t i = start; i < history_.size(); ++i) {
        const auto& r = history_[i];
        out += "  #" + std::to_string(first_ + i) + " " + cfg::detokenize(r.request) + " -> " +
               (r.permitted ? "Permit" : "Deny") + " (model v" +
               std::to_string(r.model_version) + ")";
        if (r.should_permit) {
            out += *r.should_permit == r.permitted ? " [confirmed]" : " [WRONG]";
        }
        out += "\n";
    }
    out += "decisions: " + std::to_string(history_.size()) + ", permitted: " +
           std::to_string(permitted) + ", feedback: " + std::to_string(with_feedback);
    if (with_feedback > 0) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.3f",
                      static_cast<double>(correct) / static_cast<double>(with_feedback));
        out += ", observed accuracy: " + std::string(buf);
    }
    out += ", pre-v" + std::to_string(latest_version) + " decisions: " + std::to_string(stale) + "\n";
    return out;
}

bool PolicyDecisionPoint::decide(const cfg::TokenString& request, asp::Program context,
                                 const asg::AnswerSetGrammar& model,
                                 const PolicyRepository& repo) const {
    obs::Phase phase(obs::PhaseId::PdpDecide);

    // Membership serves asg::accepts: the literal verdict, grounded over
    // the rules it can depend on. With a grounding memo installed it keeps
    // the memo's path, under the relevant context; the memo pointer rides
    // on a per-call copy so `decide` stays const.
    auto member = [&] {
        if (memo_ == nullptr) return asg::accepts(model, request, std::move(context), options_);
        asg::MembershipOptions options = options_;
        options.memo = memo_;
        return asg::in_language(model, request, asg::relevant_context(model, std::move(context)),
                                options);
    };

    bool permitted = false;
    switch (strategy_) {
        case DecisionStrategy::Repository: {
            permitted = repo.contains(request);
            // When the PReP could not materialize the full request space,
            // absence from the repository is inconclusive: fall back to the
            // authoritative membership check instead of silently denying.
            if (!permitted && repo.truncated()) {
                permitted = member();
                if (obs::metrics_enabled()) {
                    static obs::Counter& fallbacks =
                        obs::metrics().counter("srv.repository_fallbacks");
                    fallbacks.add(1);
                }
            }
            break;
        }
        case DecisionStrategy::Membership:
            permitted = member();
            break;
    }
    if (obs::metrics_enabled()) {
        auto& m = obs::metrics();
        static obs::Counter& permits = m.counter("agenp.pdp.permitted");
        if (permitted) permits.add(1);
    }
    return permitted;
}

}  // namespace agenp::framework
