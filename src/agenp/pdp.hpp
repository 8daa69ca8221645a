// PDP + PEP + decision monitoring (Fig 2, bottom).
//
// A "request" at this level is a candidate policy-governed action rendered
// as a token string of the GPM's policy language; the PDP permits it iff it
// is (a) present in the Policy Repository (repository strategy, mirroring a
// conventional PBMS whose PDP consults stored policies), or (b) in the
// GPM's language under the current context (membership strategy, for
// request spaces too large to materialize). The PEP carries the decision
// out and the monitor records history for the PAdaP.
#pragma once

#include <deque>
#include <functional>
#include <optional>

#include "agenp/repository.hpp"
#include "asg/membership.hpp"

namespace agenp::framework {

struct DecisionRecord {
    cfg::TokenString request;
    asp::Program context;
    bool permitted = false;
    std::uint64_t model_version = 0;
    // Ground truth feedback, when later observed (drives adaptation).
    std::optional<bool> should_permit;
};

// History of PDP decisions and PEP actions ("the operations of the PDP and
// PEP are monitored to produce a history").
//
// Bounded: the monitor keeps at most `capacity` records as a ring buffer,
// evicting the oldest, so a long-running serving loop cannot grow it
// without bound. Indices returned by record() are monotonically increasing
// sequence numbers that stay valid across evictions; attach_feedback on an
// evicted (or never-issued) index reports failure instead of touching
// memory it doesn't own.
class DecisionMonitor {
public:
    static constexpr std::size_t kDefaultCapacity = 65536;

    explicit DecisionMonitor(std::size_t capacity = kDefaultCapacity)
        : capacity_(capacity == 0 ? 1 : capacity) {}

    std::size_t record(DecisionRecord record) {
        if (history_.size() == capacity_) {
            history_.pop_front();
            ++first_;
        }
        history_.push_back(std::move(record));
        return first_ + history_.size() - 1;
    }

    // False when `index` was evicted or never issued.
    [[nodiscard]] bool attach_feedback(std::size_t index, bool should_permit) {
        if (index < first_ || index - first_ >= history_.size()) return false;
        history_[index - first_].should_permit = should_permit;
        return true;
    }

    [[nodiscard]] const std::deque<DecisionRecord>& history() const { return history_; }
    // Sequence number of history().front(); equals total_recorded() minus
    // the retained count.
    [[nodiscard]] std::size_t first_index() const { return first_; }
    [[nodiscard]] std::size_t total_recorded() const { return first_ + history_.size(); }
    [[nodiscard]] std::size_t capacity() const { return capacity_; }

    // Accuracy over records with feedback; nullopt when none.
    [[nodiscard]] std::optional<double> observed_accuracy() const;

    // Records with feedback, for re-learning.
    [[nodiscard]] std::vector<const DecisionRecord*> feedback_records() const;

    // Human-readable audit trail (Section V.A's logging requirement): the
    // last `last_n` decisions (0 = all) plus summary counts — total,
    // permitted, feedback coverage, observed accuracy, and decisions taken
    // by superseded model versions.
    [[nodiscard]] std::string render_audit(std::size_t last_n = 0) const;

    // Drops retained records; sequence numbers keep advancing so indices
    // handed out before the clear stay invalid rather than aliasing.
    void clear() {
        first_ += history_.size();
        history_.clear();
    }

private:
    std::size_t capacity_;
    std::size_t first_ = 0;  // sequence number of history_.front()
    std::deque<DecisionRecord> history_;
};

enum class DecisionStrategy {
    Repository,  // permitted iff the request is a stored generated policy
    Membership,  // permitted iff the request is in L(model(context))
};

// Stable lowercase name, as reported in audit-log entries and stats.
constexpr const char* strategy_name(DecisionStrategy s) {
    return s == DecisionStrategy::Repository ? "repository" : "membership";
}

class PolicyDecisionPoint {
public:
    PolicyDecisionPoint(DecisionStrategy strategy, asg::MembershipOptions options = {})
        : strategy_(strategy), options_(std::move(options)) {}

    // Takes the context by value and slices it in place: a caller that
    // moves its context in (DecisionService moves its probed slice) pays
    // no copy.
    [[nodiscard]] bool decide(const cfg::TokenString& request, asp::Program context,
                              const asg::AnswerSetGrammar& model, const PolicyRepository& repo) const;

    [[nodiscard]] DecisionStrategy strategy() const { return strategy_; }

    // Installs (or removes, with nullptr) a grounding memo used by the
    // membership strategy; the owner (DecisionService) keeps it alive and
    // epoch-stamps it on model updates. See asg/memo.hpp.
    void set_grounding_memo(asg::GroundingMemo* memo) { memo_ = memo; }
    [[nodiscard]] asg::GroundingMemo* grounding_memo() const { return memo_; }

private:
    DecisionStrategy strategy_;
    asg::MembershipOptions options_;
    asg::GroundingMemo* memo_ = nullptr;
};

// The PEP applies decisions to the managed resources; here the managed
// side-effect is pluggable.
class PolicyEnforcementPoint {
public:
    using Effector = std::function<void(const cfg::TokenString&, bool permitted)>;

    void set_effector(Effector e) { effector_ = std::move(e); }

    void enforce(const cfg::TokenString& request, bool permitted) const {
        if (effector_) effector_(request, permitted);
    }

private:
    Effector effector_;
};

}  // namespace agenp::framework
