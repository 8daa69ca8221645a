#include "srv/service.hpp"

#include <algorithm>
#include <exception>
#include <limits>

#include "obs/metrics.hpp"
#include "srv/audit.hpp"
#include "util/strings.hpp"

namespace agenp::srv {

std::string_view outcome_name(Outcome outcome) {
    switch (outcome) {
        case Outcome::Permit: return "Permit";
        case Outcome::Deny: return "Deny";
        case Outcome::Overloaded: return "Overloaded";
        case Outcome::Expired: return "Expired";
        case Outcome::Error: return "Error";
    }
    return "?";
}

DecisionService::DecisionService(framework::AutonomousManagedSystem& ams, ServiceOptions options)
    : ams_(ams), options_(options), cache_(options.cache), flight_(options.flight_capacity) {
    if (options_.threads == 0) options_.threads = 1;
    if (options_.queue_capacity == 0) options_.queue_capacity = 1;
    if (options_.trace.max_captured == 0) options_.trace.max_captured = 1;
    if (options_.id_stride == 0) options_.id_stride = 1;
    if (options_.use_memo) {
        // Install before the workers spawn so no decision ever races the
        // memo pointer; stamped with the model version in force now.
        memo_ = std::make_unique<asg::GroundingMemo>(options_.memo);
        memo_->set_epoch(ams_.model_version());
        ams_.set_grounding_memo(memo_.get());
    }
    workers_.reserve(options_.threads);
    for (std::size_t i = 0; i < options_.threads; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

DecisionService::~DecisionService() {
    {
        util::MutexLock lock(queue_mu_);
        stopping_ = true;
    }
    queue_cv_.notify_all();
    for (auto& w : workers_) w.join();
    // The AMS outlives the service; don't leave it pointing at our memo.
    if (memo_) ams_.set_grounding_memo(nullptr);
}

void DecisionService::submit(cfg::TokenString request,
                             std::function<void(const Decision&)> on_complete,
                             SubmitOptions submit_options) {
    Task task;
    task.tokens = std::move(request);
    task.submitted_ns = obs::monotonic_ns();
    // A timeout too large to represent means no deadline.
    constexpr std::uint64_t kNoDeadline = std::numeric_limits<std::uint64_t>::max();
    auto timeout_us =
        static_cast<std::uint64_t>(std::max<std::int64_t>(submit_options.timeout.count(), 0));
    task.deadline_ns = timeout_us > 0 && timeout_us < (kNoDeadline - task.submitted_ns) / 1000
                           ? task.submitted_ns + timeout_us * 1000
                           : kNoDeadline;
    task.trace_id = options_.id_offset +
                    (submitted_.fetch_add(1, std::memory_order_relaxed) + 1) * options_.id_stride;
    task.client_id = submit_options.client_id;
    task.on_complete = std::move(on_complete);
    if (options_.trace.active()) {
        // Tail-based: record spans now, decide at completion whether the
        // tree is worth keeping. When only sampling is on, skip the
        // requests sampling will discard anyway.
        bool sampled = options_.trace.sample_every > 0 &&
                       task.trace_id % options_.trace.sample_every == 0;
        if (options_.trace.slow_threshold_us > 0 || sampled) {
            task.trace = std::make_unique<obs::TraceContext>(task.trace_id);
            task.trace->set_client(task.client_id);
            // The root spans threads: it opens here, so the whole tree
            // nests under it, and closes in maybe_capture().
            task.trace->begin_span(obs::PhaseId::SrvRequest, task.submitted_ns);
        }
    }
    if (answer_if_cached(task)) return;

    task.enqueued_ns = obs::monotonic_ns();
    bool queued = false;
    {
        util::MutexLock lock(queue_mu_);
        if (!stopping_ && queue_.size() < options_.queue_capacity) {
            queue_.push_back(std::move(task));
            queued = true;
        }
    }
    if (queued) {
        queue_cv_.notify_one();
        return;
    }
    Decision decision;
    finish(task, decision, Outcome::Overloaded);
}

// The hit path: a request whose verdict is cached completes here, on the
// submitting thread, with no queue hand-off and no worker wakeup. Returns
// false when the request must be queued: probed (context and key kept for
// the worker) after a miss, unprobed while an adoption holds the model
// lock or the service is stopping.
bool DecisionService::answer_if_cached(Task& task) {
    if (!options_.use_cache || stopping_.load(std::memory_order_acquire)) return false;
    // Never wait out an adoption: a learn holds the write lock for up to a
    // second, and the submitting thread may be the transport's event loop.
    if (!state_mu_.try_lock_shared()) return false;
    Decision decision;
    std::optional<Outcome> outcome;
    {
        obs::PhaseTimesScope phase_scope(&task.phases);
        obs::TraceContextScope trace_scope(task.trace.get());
        outcome = verdict(task, decision, /*cached_only=*/true);
    }
    state_mu_.unlock_shared();
    if (!outcome) return false;
    // Answered without queueing: the request's queue wait is zero.
    obs::record_phase(obs::PhaseId::SrvQueueWait, task.submitted_ns, task.submitted_ns,
                      &task.phases, task.trace.get());
    finish(task, decision, *outcome);
    return true;
}

void DecisionService::drain() {
    util::MutexLock lock(queue_mu_);
    while (!(queue_.empty() && in_flight_ == 0)) drain_cv_.wait(queue_mu_);
}

void DecisionService::update_model(const std::function<void()>& fn) {
    obs::ProfiledWriteLock lock(state_mu_);
    fn();
    // Lazy invalidation, like the decision cache: stamping the new model
    // version here (no worker holds the shared lock) makes every fragment
    // and verdict inserted under the old version miss from now on.
    if (memo_) memo_->set_epoch(ams_.model_version());
}

std::size_t DecisionService::queue_depth() const {
    util::MutexLock lock(queue_mu_);
    return queue_.size();
}

ServiceStats DecisionService::snapshot_stats() const {
    ServiceStats out;
    out.submitted = submitted_.load(std::memory_order_relaxed);
    out.completed = completed_.load(std::memory_order_relaxed);
    out.permitted = permitted_.load(std::memory_order_relaxed);
    out.denied = denied_.load(std::memory_order_relaxed);
    out.rejected_overload = rejected_.load(std::memory_order_relaxed);
    out.expired = expired_.load(std::memory_order_relaxed);
    out.errors = errors_.load(std::memory_order_relaxed);
    out.traces_captured = traces_captured_.load(std::memory_order_relaxed);
    {
        util::MutexLock lock(queue_mu_);
        out.queue_depth = queue_.size();
    }
    out.cache = cache_.stats();
    if (memo_) out.memo = memo_->stats();
    return out;
}

std::vector<CapturedTrace> DecisionService::captured_traces() const {
    util::MutexLock lock(traces_mu_);
    return {captured_.begin(), captured_.end()};
}

std::string DecisionService::captured_traces_json() const {
    util::MutexLock lock(traces_mu_);
    std::vector<const obs::TraceContext*> traces;
    traces.reserve(captured_.size());
    for (const auto& c : captured_) traces.push_back(&c.trace);
    return obs::chrome_trace_json(traces);
}

void DecisionService::worker_loop() {
    while (true) {
        Task task;
        {
            util::MutexLock lock(queue_mu_);
            while (!stopping_ && queue_.empty()) queue_cv_.wait(queue_mu_);
            if (queue_.empty()) {
                if (stopping_) return;
                continue;
            }
            task = std::move(queue_.front());
            queue_.pop_front();
            ++in_flight_;
        }
        process(task);
        {
            util::MutexLock lock(queue_mu_);
            --in_flight_;
            if (queue_.empty() && in_flight_ == 0) drain_cv_.notify_all();
        }
    }
}

void DecisionService::maybe_capture(Task& task, std::uint64_t end_ns, std::uint64_t total_us) {
    if (task.trace == nullptr) return;
    task.trace->end_span(0, end_ns);
    const TraceOptions& opts = options_.trace;
    const char* reason = nullptr;
    if (opts.slow_threshold_us > 0 && total_us >= opts.slow_threshold_us) {
        reason = "slow";
    } else if (opts.sample_every > 0 && task.trace_id % opts.sample_every == 0) {
        reason = "sample";
    }
    if (reason == nullptr) return;  // fast and unsampled: drop the tree
    traces_captured_.fetch_add(1, std::memory_order_relaxed);
    util::MutexLock lock(traces_mu_);
    captured_.push_back(CapturedTrace{reason, std::move(*task.trace)});
    while (captured_.size() > opts.max_captured) captured_.pop_front();
}

// Every request ends here, on the thread that answered it and with no lock
// held: counted, recorded, then handed to its callback.
void DecisionService::finish(Task& task, Decision& decision, Outcome outcome) {
    switch (outcome) {
        case Outcome::Permit:
        case Outcome::Deny:
            completed_.fetch_add(1, std::memory_order_relaxed);
            (outcome == Outcome::Permit ? permitted_ : denied_)
                .fetch_add(1, std::memory_order_relaxed);
            break;
        case Outcome::Overloaded: rejected_.fetch_add(1, std::memory_order_relaxed); break;
        case Outcome::Expired: expired_.fetch_add(1, std::memory_order_relaxed); break;
        case Outcome::Error: errors_.fetch_add(1, std::memory_order_relaxed); break;
    }
    std::uint64_t end_ns = obs::monotonic_ns();
    obs::record_phase(obs::PhaseId::SrvRequest, task.submitted_ns, end_ns, &task.phases, nullptr);
    decision.outcome = outcome;
    decision.latency_us = task.phases.us(obs::PhaseId::SrvRequest);
    decision.trace_id = task.trace_id;
    FlightRecord record;
    record.id = task.trace_id;
    record.client = task.client_id;
    record.model_version = decision.model_version;
    record.queue_us = task.phases.us(obs::PhaseId::SrvQueueWait);
    record.solve_us = task.phases.us(obs::PhaseId::SrvSolve);
    record.total_us = decision.latency_us;
    record.outcome = static_cast<std::uint8_t>(outcome);
    record.cache_hit = decision.cache_hit;
    flight_.record(record);
    if (options_.audit != nullptr) {
        AuditEntry entry;
        entry.trace_id = task.trace_id;
        entry.client_id = task.client_id;
        entry.request_hash = util::fnv1a_hash(cfg::detokenize(task.tokens));
        entry.outcome = std::string(outcome_name(outcome));
        if (outcome == Outcome::Permit || outcome == Outcome::Deny) {
            entry.strategy = decision.cache_hit
                                 ? "cache"
                                 : framework::strategy_name(ams_.strategy());
        } else {
            entry.strategy = "none";  // rejected, expired or failed: not decided
        }
        entry.cache_hit = decision.cache_hit;
        entry.model_version = decision.model_version;
        entry.replica = options_.id_offset;
        entry.latency_us = decision.latency_us;
        entry.queue_us = record.queue_us;
        entry.solve_us = record.solve_us;
        options_.audit->record(std::move(entry));
    }
    maybe_capture(task, end_ns, decision.latency_us);
    task.on_complete(decision);
}

// Gathers the request's context, keeps the part the model in force reads
// and, with the cache on, builds its key and looks it up under that model's
// version. On a hit the probe is the request's whole verdict step, so it
// also feeds srv.solve.
std::optional<bool> DecisionService::probe(Task& task) {
    {
        obs::Phase phase(obs::PhaseId::SrvContext);
        task.context = asg::relevant_context(ams_.model(), ams_.pip().gather());
    }
    task.probed = true;
    task.probed_version = ams_.model_version();
    if (!options_.use_cache) return std::nullopt;
    std::uint64_t start_ns = obs::monotonic_ns();
    std::optional<bool> hit;
    {
        obs::Phase phase(obs::PhaseId::SrvCacheProbe);
        task.key = DecisionCache::make_key(task.tokens, task.context);
        hit = cache_.lookup(task.key, ams_.model_version());
    }
    if (hit) {
        obs::record_phase(obs::PhaseId::SrvSolve, start_ns, obs::monotonic_ns(), &task.phases,
                          task.trace.get());
    }
    return hit;
}

// One decision under the shared model lock: the probe (unless submit()
// already made it), the PDP and the cache insert on a miss, then the PEP.
// With `cached_only` it stops at a miss and returns nullopt, leaving the
// probed task for a worker. A throw fails this request only (Error, with
// its text in the decision); a throw from the verdict step skips the cache
// insert.
std::optional<Outcome> DecisionService::verdict(Task& task, Decision& decision,
                                                bool cached_only) {
    try {
        std::optional<bool> permitted;
        // The slice, and so the key, depend on what the model reads: a miss
        // probed under a model since replaced is probed again, or it would
        // be decided and cached under a context that lacks what the new
        // model reads.
        if (!task.probed || task.probed_version != ams_.model_version()) permitted = probe(task);
        decision.model_version = ams_.model_version();
        if (permitted) {
            decision.cache_hit = true;
        } else if (cached_only) {
            return std::nullopt;
        } else {
            // A miss's verdict step: the PDP (the context and key may come
            // from submit(), under an older hold of the lock and the same
            // model version). The slice is moved in; nothing reads it after.
            obs::Phase phase(obs::PhaseId::SrvSolve);
            permitted = ams_.decide(task.tokens, std::move(task.context));
            if (options_.use_cache) cache_.insert(task.key, decision.model_version, *permitted);
        }
        ams_.pep().enforce(task.tokens, *permitted);
        return *permitted ? Outcome::Permit : Outcome::Deny;
    } catch (const std::exception& e) {
        decision.error = e.what();
        return Outcome::Error;
    }
}

void DecisionService::process(Task& task) {
    std::uint64_t dequeued_ns = obs::monotonic_ns();
    obs::record_phase(obs::PhaseId::SrvQueueWait, task.enqueued_ns, dequeued_ns, &task.phases,
                      task.trace.get());
    Decision decision;
    Outcome outcome = Outcome::Expired;
    if (dequeued_ns < task.deadline_ns) {
        // Every obs::Phase below, down to the solver, feeds this request's
        // phase times and trace through the thread-locals these install.
        obs::PhaseTimesScope phase_scope(&task.phases);
        obs::TraceContextScope trace_scope(task.trace.get());
        obs::ProfiledReadLock state(state_mu_);
        outcome = *verdict(task, decision, /*cached_only=*/false);
    }
    finish(task, decision, outcome);
}

}  // namespace agenp::srv
