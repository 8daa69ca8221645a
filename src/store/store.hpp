// StateStore: the serving process's durable state directory (DESIGN.md
// §11). Owns one snapshot file and one WAL inside `--state-dir`:
//
//   <dir>/snapshot.agenp       last good full snapshot (atomic-renamed)
//   <dir>/snapshot.agenp.tmp   in-flight snapshot (transient)
//   <dir>/wal.agenp            cache inserts since that snapshot
//
// Lifecycle: construct (creates the directory 0700 — snapshot entries
// carry full request text, unlike the hash-only audit log, so the dir is
// private to the serving user), restore() once before taking traffic,
// then append_wal() per cache insert and save_snapshot() periodically /
// on drain. save_snapshot() writes the snapshot crash-safely FIRST and
// only then resets the WAL — a crash between the two merely replays WAL
// entries that the snapshot already contains, and cache restore is
// idempotent, so recovery never depends on that ordering.
//
// Observability: store.snapshot / store.restore phases. The store is the
// only counter of what it did: status() is what `/statz` reports as
// "store" and `/metrics` exports as agenp_store_* (srv::serve_metrics).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "store/snapshot.hpp"
#include "store/wal.hpp"

namespace agenp::store {

struct StoreOptions {
    std::string dir;
};

// Point-in-time store state for SERVE_STATS_JSON / /statz / exposition.
struct StoreStatus {
    std::string dir;
    std::uint64_t snapshots_written = 0;
    std::uint64_t snapshot_failures = 0;
    std::uint64_t last_snapshot_unix_ms = 0;  // 0 = none this process
    std::uint64_t snapshot_bytes = 0;
    std::uint64_t snapshot_entries = 0;
    std::uint64_t snapshot_policies = 0;
    std::uint64_t wal_appends = 0;
    std::uint64_t wal_bytes = 0;
    bool restored = false;  // restore() found a usable snapshot or WAL
    std::uint64_t restored_entries = 0;      // snapshot + WAL entries handed back
    std::uint64_t wal_replayed = 0;          // entries recovered from the WAL
    std::uint64_t wal_discarded_bytes = 0;   // torn tail dropped on restore
};

struct RestoreResult {
    bool snapshot_loaded = false;
    SnapshotData data;  // snapshot state with WAL entries appended after
    std::uint64_t wal_replayed = 0;
    std::uint64_t wal_discarded_bytes = 0;
    // Human-readable, non-fatal: torn WAL tail, missing snapshot,
    // newer-format refusal. Empty on a fully clean restore.
    std::string warning;
};

class StateStore {
public:
    // Creates `options.dir` with mode 0700 when missing and opens the WAL
    // for appending. Throws std::runtime_error when the directory cannot
    // be created or the WAL cannot be opened.
    explicit StateStore(StoreOptions options);
    ~StateStore();

    StateStore(const StateStore&) = delete;
    StateStore& operator=(const StateStore&) = delete;

    // Loads the last good snapshot (if any) and replays the WAL's
    // CRC-valid prefix over it; truncates a torn WAL tail so subsequent
    // appends land on a clean prefix. Call once, before serving.
    RestoreResult restore();

    // Encodes and atomically replaces the snapshot, then resets the WAL.
    // Stamps data.created_unix_s itself. Returns false (with the reason
    // in *error) on I/O failure; the previous snapshot is untouched.
    bool save_snapshot(SnapshotData data, std::string* error);

    // Appends one cache insert to the WAL (called from worker threads).
    void append_wal(const CacheEntryRecord& entry);

    [[nodiscard]] StoreStatus status() const;
    [[nodiscard]] const std::string& dir() const { return options_.dir; }
    [[nodiscard]] std::string snapshot_path() const;
    [[nodiscard]] std::string wal_path() const;

private:
    StoreOptions options_;
    WalWriter wal_;

    std::atomic<std::uint64_t> snapshots_written_{0};
    std::atomic<std::uint64_t> snapshot_failures_{0};
    std::atomic<std::uint64_t> last_snapshot_unix_ms_{0};
    std::atomic<std::uint64_t> snapshot_bytes_{0};
    std::atomic<std::uint64_t> snapshot_entries_{0};
    std::atomic<std::uint64_t> snapshot_policies_{0};
    std::atomic<std::uint64_t> wal_appends_{0};
    std::atomic<std::uint64_t> wal_bytes_{0};
    std::atomic<bool> restored_{false};
    std::atomic<std::uint64_t> restored_entries_{0};
    std::atomic<std::uint64_t> wal_replayed_{0};
    std::atomic<std::uint64_t> wal_discarded_bytes_{0};
};

}  // namespace agenp::store
