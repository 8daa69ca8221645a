// AmsRouter: multi-AMS sharding behind one submit() front door
// (DESIGN.md section 10).
//
// A single DecisionService serializes model updates against decisions on
// one `srv.model` lock and queues every miss for one worker pool. The
// router removes those single-instance ceilings by running N independent
// AMS replicas, each wrapped in its own DecisionService with its own
// queue, cache, flight ring, and locks.
//
// Routing: requests are placed by a 64-bit FNV-1a hash of the request
// text — the same request always lands on the same replica, so each
// replica's decision cache stays hot for its slice of the keyspace
// (affinity). When the primary replica's queue is at capacity the router
// falls back to the first other replica with room, scanning round-robin
// from a rotating start so spill load spreads evenly; a request is only
// rejected Overloaded when every replica is saturated. The
// `routed_affinity` / `routed_fallback` counters make the split visible.
// snapshot_stats() reads every other count, each replica's queue depth
// included, from the replicas at the moment it is called; the router
// keeps no copy of them (`/statz` and `/metrics` both read it).
//
// Request ids stay unique and globally ordered-ish across replicas:
// replica i issues ids i + k*N (ServiceOptions id_offset/id_stride), so
// merged flight snapshots interleave without collisions.
//
// Model updates: update_model(fn) applies `fn` to every replica's AMS in
// turn, each under that replica's exclusive model lock, then verifies all
// replicas report the same model version. Replicas never exchange state —
// agreement holds as long as all model changes go through the router,
// which snapshot_stats() surfaces as `versions_agree`.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "srv/service.hpp"
#include "store/snapshot.hpp"

namespace agenp::srv {

// What restore_state() managed to bring back, for the startup log line
// and SERVE_STATS_JSON.
struct StateRestoreReport {
    bool model_restored = false;
    std::uint64_t model_version = 0;
    std::size_t policies_restored = 0;
    std::string warning;  // non-fatal (e.g. unparseable model)
};

struct RouterOptions {
    std::size_t replicas = 1;
    // Template applied to every replica's DecisionService. id_offset and
    // id_stride are overwritten per replica (offset=i, stride=replicas).
    ServiceOptions service;
};

struct ReplicaStats {
    std::size_t queue_depth = 0;
    std::uint64_t model_version = 0;
    ServiceStats service;
};

struct RouterStats {
    std::vector<ReplicaStats> replicas;
    ServiceStats total;  // field-wise sum over replicas
    std::uint64_t routed_affinity = 0;
    std::uint64_t routed_fallback = 0;
    // All replicas report the same model version. False means a model
    // change bypassed the router (or an update is racing this snapshot).
    bool versions_agree = true;
    std::uint64_t model_version = 0;  // replica 0's (== all when agreed)
};

class AmsRouter {
public:
    using AmsFactory = std::function<std::unique_ptr<framework::AutonomousManagedSystem>()>;

    // Calls `factory` once per replica; each replica gets a fresh AMS so
    // replicas share no mutable state. `options.replicas` is clamped to
    // at least 1.
    AmsRouter(const AmsFactory& factory, RouterOptions options = {});

    AmsRouter(const AmsRouter&) = delete;
    AmsRouter& operator=(const AmsRouter&) = delete;

    // Routes to the hash-affine replica, spilling round-robin to a
    // replica with queue room when the primary is saturated. Same
    // contract as DecisionService::submit — never blocks.
    void submit(cfg::TokenString request, std::function<void(const Decision&)> on_complete,
                SubmitOptions submit_options = {});

    // The hash-affine (primary) replica index for this request — what
    // submit() picks when nothing is saturated.
    [[nodiscard]] std::size_t replica_for(const cfg::TokenString& request) const;

    // Applies `fn` to every replica's AMS, each under that replica's
    // exclusive model lock, then records per-replica versions. Returns
    // replica 0's resulting model version.
    std::uint64_t update_model(const std::function<void(framework::AutonomousManagedSystem&)>& fn);

    // Blocks until every replica has completed all accepted requests.
    void drain();

    // --- persistence (src/store) ---

    // The durable serving state as one snapshot: replica 0's model and
    // policy repository (replicas agree as long as updates go through the
    // router). Reads the AMS under its model lock, so it is safe against
    // concurrent update_model(). No cache entry is included: a restarted
    // router starts with empty caches.
    [[nodiscard]] store::SnapshotData export_state();

    // Restores a snapshot into this (freshly built) router: model and
    // policies broadcast to every replica under its model lock, whatever
    // the replica count the snapshot was taken under.
    StateRestoreReport restore_state(const store::SnapshotData& data);

    [[nodiscard]] RouterStats snapshot_stats() const;

    // All replicas' flight rings merged, sorted by request id.
    [[nodiscard]] std::vector<FlightRecord> flight_snapshot() const;

    // All replicas' tail-captured traces (replica order, oldest first
    // within a replica) and the merged Chrome trace-event document.
    [[nodiscard]] std::vector<CapturedTrace> captured_traces() const;
    [[nodiscard]] std::string captured_traces_json() const;

    [[nodiscard]] std::size_t replicas() const { return services_.size(); }
    [[nodiscard]] DecisionService& service(std::size_t index) { return *services_[index]; }
    [[nodiscard]] const DecisionService& service(std::size_t index) const {
        return *services_[index];
    }
    [[nodiscard]] std::uint64_t model_version() const {
        return versions_[0]->load(std::memory_order_relaxed);
    }

private:
    std::vector<std::unique_ptr<framework::AutonomousManagedSystem>> ams_;
    std::vector<std::unique_ptr<DecisionService>> services_;
    // Cached per-replica model versions, refreshed by update_model(). The
    // AMSes themselves must not be read here while serving: workers write
    // nothing, but reading AMS state outside the service's lock would
    // race a concurrent update_model(). Atomics, not GUARDED_BY: readers
    // (model_version(), ping) are lock-free by design and a torn read is
    // impossible; versions_agree in snapshot_stats() covers staleness.
    std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> versions_;
    std::atomic<std::uint64_t> routed_affinity_{0};
    std::atomic<std::uint64_t> routed_fallback_{0};
    std::atomic<std::size_t> rr_{0};  // rotating fallback scan start
};

}  // namespace agenp::srv
