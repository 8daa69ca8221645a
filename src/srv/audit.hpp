// Decision audit log: a durable NDJSON record of individual decisions
// (`agenp serve --audit-log FILE`). Each completed request appends one
// line carrying everything needed to reconstruct the decision after the
// fact — request hash, outcome, strategy, cache hit, model version,
// replica, latencies — keyed by the same trace_id the flight recorder and
// captured traces use, so the three telemetry layers cross-correlate.
//
// The file is size-capped: when an append would cross max_bytes the
// current file rotates to `<path>.1` (replacing any previous rotation)
// and a fresh file starts, so a long-lived server holds at most ~2x
// max_bytes of audit history. Sampling (`sample_every = N`) keeps every
// Nth entry for deployments where full capture is too hot; the skipped
// count is reported so the gap is visible. The log is the only counter of
// what it wrote: stats() is what `/metrics` exports as agenp_srv_audit_*.
//
// Thread safety: record() is called from worker threads and serializes
// under a ProfiledMutex ("srv.audit"), so audit contention shows up in
// the lock profile like every other serving lock.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "obs/lockprof.hpp"
#include "util/thread_annotations.hpp"

namespace agenp::srv {

struct AuditOptions {
    std::string path;
    std::uint64_t max_bytes = 64ull * 1024 * 1024;
    std::size_t sample_every = 1;  // keep every Nth entry (0 or 1 = all)
};

struct AuditEntry {
    std::uint64_t ts_ms = 0;  // unix milliseconds; 0 = stamped by record()
    std::uint64_t trace_id = 0;
    std::uint64_t client_id = 0;
    std::uint64_t request_hash = 0;  // util::fnv1a_hash of the request text
    std::string outcome;             // Permit / Deny / Overloaded / Expired / Error
    std::string strategy;            // membership / repository / cache / none
    bool cache_hit = false;
    std::uint64_t model_version = 0;
    std::uint64_t replica = 0;
    std::uint64_t latency_us = 0;
    std::uint64_t queue_us = 0;
    std::uint64_t solve_us = 0;
};

// What the log did since it opened.
struct AuditStats {
    std::uint64_t records = 0;      // lines written
    std::uint64_t sampled_out = 0;  // entries skipped by sampling
    std::uint64_t rotations = 0;
    std::uint64_t write_errors = 0;  // entries lost to a failed open or write
};

// One audit entry as a single-line JSON object (no trailing newline).
std::string audit_entry_json(const AuditEntry& entry);

class AuditLog {
public:
    // Opens `options.path` for append; throws std::runtime_error when the
    // file cannot be opened.
    explicit AuditLog(AuditOptions options);
    ~AuditLog();

    AuditLog(const AuditLog&) = delete;
    AuditLog& operator=(const AuditLog&) = delete;

    // Appends one entry (subject to sampling and rotation). Stamps ts_ms
    // when the caller left it zero. Write errors are counted, not thrown.
    void record(AuditEntry entry);

    [[nodiscard]] AuditStats stats() const;
    [[nodiscard]] const AuditOptions& options() const { return options_; }

private:
    void rotate_locked() REQUIRES(mutex_);

    AuditOptions options_;
    mutable obs::ProfiledMutex mutex_{"srv.audit"};
    std::FILE* file_ GUARDED_BY(mutex_) = nullptr;
    std::uint64_t bytes_ GUARDED_BY(mutex_) = 0;        // current file size
    std::uint64_t seen_ GUARDED_BY(mutex_) = 0;         // entries offered
    std::uint64_t recorded_ GUARDED_BY(mutex_) = 0;
    std::uint64_t sampled_out_ GUARDED_BY(mutex_) = 0;
    std::uint64_t rotations_ GUARDED_BY(mutex_) = 0;
    std::uint64_t write_errors_ GUARDED_BY(mutex_) = 0;
};

}  // namespace agenp::srv
