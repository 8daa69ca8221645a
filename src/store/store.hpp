// StateStore: the serving process's durable state directory (DESIGN.md
// §11). Owns one snapshot file inside `--state-dir`:
//
//   <dir>/snapshot.agenp       last good snapshot (atomic-renamed)
//   <dir>/snapshot.agenp.tmp   in-flight snapshot (transient)
//
// A snapshot holds the model in force (text, note, version) and the
// policy repository. The decision cache is not persisted: it starts
// empty on every start and holds only verdicts this process decided.
//
// Lifecycle: construct (creates the directory 0700 — stored policies are
// full request strings, unlike the hash-only audit log, so the dir is
// private to the serving user), restore() once before taking traffic,
// then save_snapshot() periodically, on `!snapshot` and on drain.
//
// Observability: store.snapshot / store.restore phases. The store is the
// only counter of what it did: status() is what `/statz` reports as
// "store" and `/metrics` exports as agenp_store_* (srv::serve_metrics).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "store/snapshot.hpp"

namespace agenp::store {

struct StoreOptions {
    std::string dir;
};

// Point-in-time store state for SERVE_STATS_JSON / /statz / exposition.
struct StoreStatus {
    std::uint64_t snapshots_written = 0;
    std::uint64_t snapshot_failures = 0;
    std::uint64_t last_snapshot_unix_ms = 0;  // 0 = none this process
    std::uint64_t snapshot_bytes = 0;
    std::uint64_t snapshot_policies = 0;
    bool restored = false;  // restore() found a usable snapshot
};

struct RestoreResult {
    bool snapshot_loaded = false;
    SnapshotData data;
    // Human-readable, non-fatal: a corrupt snapshot, or one of another
    // format version. Empty on a clean restore or a cold start.
    std::string warning;
};

class StateStore {
public:
    // Creates `options.dir` with mode 0700 when missing, and checks that
    // a snapshot can be written there. Throws std::runtime_error when the
    // directory cannot be created or written.
    explicit StateStore(StoreOptions options);

    StateStore(const StateStore&) = delete;
    StateStore& operator=(const StateStore&) = delete;

    // Loads the last good snapshot, if any. Call once, before serving.
    RestoreResult restore();

    // Encodes and atomically replaces the snapshot. Stamps
    // data.created_unix_s itself. Returns false (with the reason in
    // *error) on I/O failure; the previous snapshot is untouched.
    bool save_snapshot(SnapshotData data, std::string* error);

    [[nodiscard]] StoreStatus status() const;
    [[nodiscard]] std::string snapshot_path() const;

private:
    StoreOptions options_;

    std::atomic<std::uint64_t> snapshots_written_{0};
    std::atomic<std::uint64_t> snapshot_failures_{0};
    std::atomic<std::uint64_t> last_snapshot_unix_ms_{0};
    std::atomic<std::uint64_t> snapshot_bytes_{0};
    std::atomic<std::uint64_t> snapshot_policies_{0};
    std::atomic<bool> restored_{false};
};

}  // namespace agenp::store
