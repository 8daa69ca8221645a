// PDP-as-a-service (DESIGN.md section 8): a concurrent serving layer over
// one AutonomousManagedSystem.
//
// Architecture:
//
//   submit() ── cache hit ───────────────────────────────┐
//      │        (answered on the caller's thread:        │
//      │         context, key, probe, PEP)               ▼
//      └─ miss ──▶ bounded MPMC queue ──▶ thread pool ──▶ finish() ──▶ callback
//                  (full: Overloaded,      (PDP solve,      (flight, audit,
//                   straight to finish())   cache insert,     trace)
//                                           PEP; Expired
//                                           past the deadline)
//
// A decision leaves the service one way: the callback passed to submit().
// Every request ends in finish(): a hit, a hit-path error, Overloaded,
// Expired, a decided miss or a failed miss. finish() counts the request,
// records it in the flight ring, the audit log and its trace, and then
// calls the callback, holding no lock.
//
// The served decision history is the flight ring plus the audit log: a
// decision writes no AMS state, and the AMS's DecisionMonitor belongs to
// the in-process PAdaP loop, which the service never runs.
//
// submit() probes the decision cache (srv/cache.hpp) itself. A hit is
// answered before submit() returns: it queues no work, wakes no worker and
// is neither Overloaded nor Expired. A miss is queued with the context and
// key submit() already built, so the worker only runs the PDP. Both come
// from the relevant context (asg::relevant_context): the part of the
// gathered context the model reads, so requests whose contexts differ only
// in unread facts share one entry. A miss whose model was replaced while it
// queued is probed again under the new one. With use_cache off every
// request goes to a worker, which gathers the context.
//
// Locking discipline:
//  - `state_mu_` (ProfiledSharedMutex "srv.model"): decisions take it
//    shared while reading the model/context/policy repository and running
//    the PEP; update_model() takes it exclusive, so model adoption never
//    races a decision. submit() only try-locks it: while an adoption holds
//    it (a learn can take a second) the request is queued unprobed, and the
//    worker decides it after the adoption. PIP sources and the PEP effector
//    therefore run concurrently on workers and on submitting threads (for
//    TCP, the event loop) and must be thread-safe; a source that blocks
//    stalls the thread that submitted.
//  - `queue_mu_` (util::Mutex): protects the request queue and the
//    in-flight count; pairs with the workers' condition variable.
//
// Backpressure: submit() never blocks. When the queue is at capacity a
// request that missed the cache is rejected immediately with
// Outcome::Overloaded — the caller learns it must shed load, rather than
// every caller slowing down. Deadlines: a queued request whose deadline
// passes before a worker picks it up is answered Outcome::Expired without
// paying for a solve. Failures: a decision whose evaluation throws (e.g.
// asp::GroundingError on a blown grounding limit) is answered
// Outcome::Error; the worker goes on to the next request.
//
// Observability (DESIGN.md section 7): every request gets a monotone id
// and an obs::PhaseTimes array that every obs::Phase feeds, on the
// submitting thread and on the worker. Each per-request phase is fed once
// per request, hit or miss; an inline hit's srv.queue_wait is 0.
// A summary of each request (outcome, queue/solve/total latency from that
// array, cache hit, model version) lands in the FlightRecorder ring and
// the audit log. When request tracing is configured
// (TraceOptions), each request also carries a TraceContext through queue
// wait -> cache probe -> PDP -> membership -> solver; the full span tree
// is kept only for requests slower than the tail threshold (plus optional
// 1-in-N samples) and is exportable as Chrome trace-event JSON.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "agenp/ams.hpp"
#include "asg/memo.hpp"
#include "obs/lockprof.hpp"
#include "obs/phase.hpp"
#include "obs/reqtrace.hpp"
#include "srv/cache.hpp"
#include "srv/flight.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace agenp::srv {

class AuditLog;

// Tail-based request-trace capture policy. Tracing records spans for
// every request while active (a handful of timestamps), but keeps the
// tree only when it turns out to matter: the request was slower than the
// threshold, or it was picked by deterministic 1-in-N sampling. With both
// knobs at zero no TraceContext is ever allocated.
struct TraceOptions {
    std::uint64_t slow_threshold_us = 0;  // keep trees slower than this (0 = off)
    std::size_t sample_every = 0;         // also keep every Nth request (0 = off)
    std::size_t max_captured = 32;        // bounded store; oldest dropped

    [[nodiscard]] bool active() const { return slow_threshold_us > 0 || sample_every > 0; }
};

struct ServiceOptions {
    std::size_t threads = 4;
    std::size_t queue_capacity = 1024;
    bool use_cache = true;
    CacheOptions cache;
    // Grounding memo on the cache-miss path (asg/memo.hpp): repeated
    // grammar fragments ground once and decisive solver verdicts are
    // recalled per (parse tree, context, model version). Decisions are
    // identical with it on or off. Off by default: misses decide under the
    // relevant context, and there its tables cost more memory than the
    // CPU they save is worth (DESIGN.md section 13).
    bool use_memo = false;
    asg::MemoOptions memo;
    TraceOptions trace;
    std::size_t flight_capacity = FlightRecorder::kDefaultCapacity;
    // Request-id sequencing: ids are id_offset + k * id_stride for
    // k = 1, 2, ... The defaults yield 1, 2, 3, ...; the AmsRouter gives
    // replica i offset=i, stride=N so ids stay unique across replicas.
    std::uint64_t id_offset = 0;
    std::uint64_t id_stride = 1;
    // Optional decision audit sink (srv/audit.hpp). Not owned; must
    // outlive the service. Every finished request — including Overloaded
    // and Expired rejections — is offered to it, so the audit line count
    // equals the submitted count when sampling is off.
    AuditLog* audit = nullptr;
};

enum class Outcome {
    Permit,
    Deny,
    Overloaded,  // rejected at submit: cache miss with the queue full, or service stopping
    Expired,     // queued, and the deadline passed before a worker picked it up
    Error,       // evaluating the request threw; nothing cached
};

std::string_view outcome_name(Outcome outcome);

struct Decision {
    Outcome outcome = Outcome::Deny;
    bool cache_hit = false;
    std::uint64_t model_version = 0;
    std::uint64_t latency_us = 0;  // submit -> completion, queue wait (if queued) included
    // Request id: monotone per service, correlates the decision with its
    // flight record and any captured trace.
    std::uint64_t trace_id = 0;
    std::string error;  // Error only: what the evaluation threw

    [[nodiscard]] bool permitted() const { return outcome == Outcome::Permit; }
};

struct ServiceStats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;  // decided (Permit or Deny)
    std::uint64_t permitted = 0;
    std::uint64_t denied = 0;
    std::uint64_t rejected_overload = 0;
    std::uint64_t expired = 0;
    std::uint64_t errors = 0;  // Outcome::Error replies
    std::uint64_t traces_captured = 0;
    std::size_t queue_depth = 0;
    CacheStats cache;
    asg::MemoStats memo;  // zeros when use_memo is off
};

// Per-request options of DecisionService::submit. `timeout` is the
// request's deadline (zero = none); it applies only to a request that is
// queued. `client_id` tags the request's flight record and trace with the
// transport connection it arrived on (0 = not connection-bound).
struct SubmitOptions {
    std::chrono::microseconds timeout{0};
    std::uint64_t client_id = 0;
};

// A span tree the tail sampler decided to keep.
struct CapturedTrace {
    std::string reason;  // "slow" or "sample"
    obs::TraceContext trace;

    [[nodiscard]] std::uint64_t trace_id() const { return trace.trace_id(); }
};

class DecisionService {
public:
    // `ams` must outlive the service. The service serializes all its own
    // accesses to the AMS; other threads must not touch the AMS directly
    // while the service runs except through update_model().
    explicit DecisionService(framework::AutonomousManagedSystem& ams, ServiceOptions options = {});
    ~DecisionService();

    DecisionService(const DecisionService&) = delete;
    DecisionService& operator=(const DecisionService&) = delete;

    // Answers one request from the cache, or enqueues it. `on_complete`
    // receives its Decision exactly once: before submit() returns for a
    // cache hit or an immediate Overloaded rejection, otherwise on the
    // worker that finished the request. Never waits for a worker or an
    // adoption: a miss meeting a full queue is answered Overloaded.
    void submit(cfg::TokenString request, std::function<void(const Decision&)> on_complete,
                SubmitOptions submit_options = {});

    // Blocks until every accepted request has completed and its callback
    // has returned.
    void drain();

    // Runs `fn` with exclusive access to the AMS — no decision in flight,
    // none starting. Use for adoption/import/refresh; decisions cached
    // under the old model version invalidate lazily via version stamping.
    void update_model(const std::function<void()>& fn);

    [[nodiscard]] ServiceStats snapshot_stats() const;
    // Current queue depth only — cheaper than snapshot_stats() for the
    // router's per-submit replica choice.
    [[nodiscard]] std::size_t queue_depth() const;
    [[nodiscard]] const DecisionCache& cache() const { return cache_; }
    // Mutable access exists for state restore (AmsRouter::restore_state)
    // only; everything in-band goes through lookup/insert on the workers.
    [[nodiscard]] DecisionCache& cache() { return cache_; }
    // Null when use_memo is off.
    [[nodiscard]] const asg::GroundingMemo* grounding_memo() const { return memo_.get(); }
    [[nodiscard]] const ServiceOptions& options() const { return options_; }

    // Recent-request ring (always on; see srv/flight.hpp).
    [[nodiscard]] const FlightRecorder& flight() const { return flight_; }

    // Span trees retained by the tail sampler, oldest first.
    [[nodiscard]] std::vector<CapturedTrace> captured_traces() const;
    // All captured trees merged into one Chrome trace-event JSON document
    // (one tid lane per request).
    [[nodiscard]] std::string captured_traces_json() const;

private:
    struct Task {
        cfg::TokenString tokens;
        std::uint64_t submitted_ns = 0;  // obs::monotonic_ns() at submit
        std::uint64_t enqueued_ns = 0;   // when queued; srv.queue_wait starts here
        std::uint64_t deadline_ns = 0;   // UINT64_MAX = none
        std::uint64_t trace_id = 0;
        std::uint64_t client_id = 0;  // transport connection id; 0 = none
        std::function<void(const Decision&)> on_complete;
        // Null unless tracing this request; span 0 is the srv.request root.
        std::unique_ptr<obs::TraceContext> trace;
        obs::PhaseTimes phases;
        // Filled by probe(): the part of the gathered context the model of
        // `probed_version` reads (asg::relevant_context) and, with the
        // cache on, its key. A task submit() probed reaches the worker as
        // a miss; one probed under a superseded model is probed again.
        bool probed = false;
        std::uint64_t probed_version = 0;
        asp::Program context;
        CacheKey key;
    };

    bool answer_if_cached(Task& task);
    void worker_loop();
    void process(Task& task);
    std::optional<bool> probe(Task& task) REQUIRES_SHARED(state_mu_);
    std::optional<Outcome> verdict(Task& task, Decision& decision, bool cached_only)
        REQUIRES_SHARED(state_mu_);
    void finish(Task& task, Decision& decision, Outcome outcome);
    void maybe_capture(Task& task, std::uint64_t end_ns, std::uint64_t total_us);

    framework::AutonomousManagedSystem& ams_;
    ServiceOptions options_;
    DecisionCache cache_;
    // Owned grounding memo, installed on the AMS's PDP for the service's
    // lifetime; epoch-stamped from update_model under the model write lock.
    std::unique_ptr<asg::GroundingMemo> memo_;
    FlightRecorder flight_;

    obs::ProfiledSharedMutex state_mu_{"srv.model"};

    mutable util::Mutex queue_mu_;
    util::CondVar queue_cv_;  // workers: work available or stopping
    util::CondVar drain_cv_;  // drain(): queue empty and idle
    std::deque<Task> queue_ GUARDED_BY(queue_mu_);
    std::size_t in_flight_ GUARDED_BY(queue_mu_) = 0;
    // Written under queue_mu_ (the workers wait on it); submit() reads it
    // without the lock before answering a hit inline.
    std::atomic<bool> stopping_{false};

    mutable util::Mutex traces_mu_;
    std::deque<CapturedTrace> captured_ GUARDED_BY(traces_mu_);

    std::atomic<std::uint64_t> submitted_{0};
    std::atomic<std::uint64_t> completed_{0};
    std::atomic<std::uint64_t> permitted_{0};
    std::atomic<std::uint64_t> denied_{0};
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> expired_{0};
    std::atomic<std::uint64_t> errors_{0};
    std::atomic<std::uint64_t> traces_captured_{0};

    std::vector<std::thread> workers_;
};

}  // namespace agenp::srv
