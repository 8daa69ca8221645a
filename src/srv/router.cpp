#include "srv/router.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace agenp::srv {

AmsRouter::AmsRouter(const AmsFactory& factory, RouterOptions options) {
    std::size_t n = std::max<std::size_t>(options.replicas, 1);
    ams_.reserve(n);
    services_.reserve(n);
    versions_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        ams_.push_back(factory());
        ServiceOptions service_options = options.service;
        service_options.id_offset = i;
        service_options.id_stride = n;
        services_.push_back(std::make_unique<DecisionService>(*ams_[i], service_options));
        versions_.push_back(
            std::make_unique<std::atomic<std::uint64_t>>(ams_[i]->model_version()));
    }
}

std::size_t AmsRouter::replica_for(const cfg::TokenString& request) const {
    // One replica takes every request: no text to build, nothing to hash.
    if (services_.size() == 1) return 0;
    // Same placement hash family as the decision cache, so equal request
    // texts always map to the same replica.
    return util::fnv1a_hash(cfg::detokenize(request)) % services_.size();
}

void AmsRouter::submit(cfg::TokenString request, std::function<void(const Decision&)> on_complete,
                       SubmitOptions submit_options) {
    std::size_t primary = replica_for(request);
    std::size_t pick = primary;
    if (services_.size() > 1 &&
        services_[primary]->queue_depth() >= services_[primary]->options().queue_capacity) {
        // Primary saturated: spill to the first replica with queue room,
        // scanning from a rotating start so spill load spreads. If every
        // replica is full, stay on the primary — it rejects Overloaded.
        std::size_t start = rr_.fetch_add(1, std::memory_order_relaxed);
        for (std::size_t k = 0; k < services_.size(); ++k) {
            std::size_t i = (start + k) % services_.size();
            if (i == primary) continue;
            if (services_[i]->queue_depth() < services_[i]->options().queue_capacity) {
                pick = i;
                break;
            }
        }
    }
    (pick == primary ? routed_affinity_ : routed_fallback_)
        .fetch_add(1, std::memory_order_relaxed);
    services_[pick]->submit(std::move(request), std::move(on_complete), submit_options);
}

std::uint64_t AmsRouter::update_model(
    const std::function<void(framework::AutonomousManagedSystem&)>& fn) {
    for (std::size_t i = 0; i < services_.size(); ++i) {
        services_[i]->update_model([&] { fn(*ams_[i]); });
        // Safe to read outside the lock: this thread is the only model
        // writer, and it just finished writing.
        versions_[i]->store(ams_[i]->model_version(), std::memory_order_relaxed);
    }
    return versions_[0]->load(std::memory_order_relaxed);
}

void AmsRouter::drain() {
    for (auto& service : services_) service->drain();
}

store::SnapshotData AmsRouter::export_state() {
    store::SnapshotData data;
    // Replica 0 is authoritative for model + repository: replicas agree
    // whenever updates went through update_model (versions_agree).
    services_[0]->update_model([&] {
        auto& ams = *ams_[0];
        data.model_version = ams.model_version();
        data.repo_version = ams.policies().version();
        data.repo_truncated = ams.policies().truncated();
        if (data.model_version > 0) {
            data.model_text = ams.model().to_string();
            data.model_note = ams.representations().note_for(data.model_version);
        }
        for (const auto& stored : ams.policies().all()) {
            data.policies.push_back(
                {cfg::detokenize(stored.policy), stored.source, stored.version});
        }
    });
    return data;
}

StateRestoreReport AmsRouter::restore_state(const store::SnapshotData& data) {
    StateRestoreReport report;

    std::unique_ptr<asg::AnswerSetGrammar> model;
    if (data.model_version > 0 && !data.model_text.empty()) {
        try {
            model = std::make_unique<asg::AnswerSetGrammar>(
                asg::AnswerSetGrammar::parse(data.model_text));
        } catch (const std::exception& e) {
            report.warning = std::string("persisted model unparseable, serving initial: ") +
                             e.what();
        }
    }
    std::vector<framework::StoredPolicy> stored;
    stored.reserve(data.policies.size());
    for (const auto& policy : data.policies) {
        stored.push_back({cfg::tokenize(policy.text), policy.source, policy.version});
    }
    if (model || !stored.empty() || data.repo_version > 0) {
        update_model([&](framework::AutonomousManagedSystem& ams) {
            if (model) {
                ams.representations().restore(*model, data.model_version, data.model_note);
            }
            ams.policies().restore(stored, data.repo_version, data.repo_truncated);
        });
        report.model_restored = model != nullptr;
        report.policies_restored = stored.size();
    }
    report.model_version = model_version();
    return report;
}

RouterStats AmsRouter::snapshot_stats() const {
    RouterStats out;
    out.replicas.reserve(services_.size());
    for (std::size_t i = 0; i < services_.size(); ++i) {
        ReplicaStats replica;
        replica.service = services_[i]->snapshot_stats();
        replica.queue_depth = replica.service.queue_depth;
        replica.model_version = versions_[i]->load(std::memory_order_relaxed);

        out.total.submitted += replica.service.submitted;
        out.total.completed += replica.service.completed;
        out.total.permitted += replica.service.permitted;
        out.total.denied += replica.service.denied;
        out.total.rejected_overload += replica.service.rejected_overload;
        out.total.expired += replica.service.expired;
        out.total.errors += replica.service.errors;
        out.total.traces_captured += replica.service.traces_captured;
        out.total.queue_depth += replica.service.queue_depth;
        out.total.cache.hits += replica.service.cache.hits;
        out.total.cache.misses += replica.service.cache.misses;
        out.total.cache.insertions += replica.service.cache.insertions;
        out.total.cache.evictions += replica.service.cache.evictions;
        out.total.cache.invalidations += replica.service.cache.invalidations;
        out.total.cache.entries += replica.service.cache.entries;
        out.total.cache.bytes += replica.service.cache.bytes;
        out.total.memo.hits += replica.service.memo.hits;
        out.total.memo.misses += replica.service.memo.misses;
        out.total.memo.insertions += replica.service.memo.insertions;
        out.total.memo.evictions += replica.service.memo.evictions;
        out.total.memo.invalidations += replica.service.memo.invalidations;
        out.total.memo.sat_hits += replica.service.memo.sat_hits;
        out.total.memo.gate_fallbacks += replica.service.memo.gate_fallbacks;
        out.total.memo.entries += replica.service.memo.entries;
        out.total.memo.bytes += replica.service.memo.bytes;

        out.replicas.push_back(std::move(replica));
    }
    out.model_version = versions_[0]->load(std::memory_order_relaxed);
    out.versions_agree = true;
    for (const auto& replica : out.replicas) {
        if (replica.model_version != out.model_version) out.versions_agree = false;
    }
    out.routed_affinity = routed_affinity_.load(std::memory_order_relaxed);
    out.routed_fallback = routed_fallback_.load(std::memory_order_relaxed);
    return out;
}

std::vector<FlightRecord> AmsRouter::flight_snapshot() const {
    std::vector<FlightRecord> out;
    for (const auto& service : services_) {
        auto records = service->flight().snapshot();
        out.insert(out.end(), records.begin(), records.end());
    }
    std::sort(out.begin(), out.end(),
              [](const FlightRecord& a, const FlightRecord& b) { return a.id < b.id; });
    return out;
}

std::vector<CapturedTrace> AmsRouter::captured_traces() const {
    std::vector<CapturedTrace> out;
    for (const auto& service : services_) {
        auto captured = service->captured_traces();
        for (auto& c : captured) out.push_back(std::move(c));
    }
    return out;
}

std::string AmsRouter::captured_traces_json() const {
    std::vector<CapturedTrace> captured = captured_traces();
    std::vector<const obs::TraceContext*> traces;
    traces.reserve(captured.size());
    for (const auto& c : captured) traces.push_back(&c.trace);
    return obs::chrome_trace_json(traces);
}

}  // namespace agenp::srv
