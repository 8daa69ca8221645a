#include "store/store.hpp"

#include <sys/stat.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "obs/phase.hpp"
#include "store/framing.hpp"
#include "util/errors.hpp"

namespace agenp::store {

namespace {

std::uint64_t wall_unix_ms() {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                          std::chrono::system_clock::now().time_since_epoch())
                                          .count());
}

}  // namespace

StateStore::StateStore(StoreOptions options) : options_(std::move(options)) {
    if (options_.dir.empty()) throw std::runtime_error("state store needs a directory");
    // 0700: snapshot entries contain full request text (the audit log
    // stores only hashes), so the state dir is private to the serving user.
    if (::mkdir(options_.dir.c_str(), 0700) != 0 && errno != EEXIST) {
        throw std::runtime_error("cannot create state dir " + options_.dir + ": " +
                                 util::errno_string());
    }
    std::string error;
    if (!wal_.open(wal_path(), &error)) {
        throw std::runtime_error("cannot open wal: " + error);
    }
}

StateStore::~StateStore() = default;

std::string StateStore::snapshot_path() const { return options_.dir + "/snapshot.agenp"; }
std::string StateStore::wal_path() const { return options_.dir + "/wal.agenp"; }

RestoreResult StateStore::restore() {
    obs::Phase phase(obs::PhaseId::StoreRestore);
    RestoreResult out;

    std::string bytes;
    if (read_file(snapshot_path(), &bytes, nullptr)) {
        std::string error;
        SnapshotData data;
        if (decode_snapshot(bytes, &data, &error)) {
            out.snapshot_loaded = true;
            out.data = std::move(data);
            snapshot_bytes_.store(bytes.size(), std::memory_order_relaxed);
            snapshot_entries_.store(out.data.entries.size(), std::memory_order_relaxed);
            snapshot_policies_.store(out.data.policies.size(), std::memory_order_relaxed);
        } else {
            out.warning = "ignoring snapshot: " + error;
        }
    }

    WalReplay replay = replay_wal(wal_path());
    out.wal_replayed = replay.entries.size();
    out.wal_discarded_bytes = replay.discarded_bytes;
    // WAL entries are newer than the snapshot: append after, so a restore
    // that inserts in order lets the WAL verdicts win on duplicate keys.
    for (auto& entry : replay.entries) out.data.entries.push_back(std::move(entry));
    if (!replay.warning.empty()) {
        if (!out.warning.empty()) out.warning += "; ";
        out.warning += replay.warning;
    }
    if (replay.discarded_bytes > 0) {
        // Drop the torn tail on disk too, so new appends extend a clean
        // CRC-valid prefix instead of hiding behind the corruption.
        wal_.truncate_to(replay.valid_bytes);
        if (replay.valid_bytes == 0) wal_.reset();
    }

    bool restored = out.snapshot_loaded || out.wal_replayed > 0;
    restored_.store(restored, std::memory_order_relaxed);
    restored_entries_.store(out.data.entries.size(), std::memory_order_relaxed);
    wal_replayed_.store(out.wal_replayed, std::memory_order_relaxed);
    wal_discarded_bytes_.store(out.wal_discarded_bytes, std::memory_order_relaxed);
    return out;
}

bool StateStore::save_snapshot(SnapshotData data, std::string* error) {
    obs::Phase phase(obs::PhaseId::StoreSnapshot);
    data.created_unix_s = wall_unix_ms() / 1000;
    std::string bytes = encode_snapshot(data);
    std::string io_error;
    if (!atomic_write_file(snapshot_path(), bytes, &io_error)) {
        snapshot_failures_.fetch_add(1, std::memory_order_relaxed);
        if (error) *error = io_error;
        return false;
    }
    // Snapshot is durable; the WAL's entries are all covered by it now.
    // A crash before this reset only replays duplicates, which restore
    // handles idempotently.
    wal_.reset();
    wal_bytes_.store(0, std::memory_order_relaxed);

    snapshots_written_.fetch_add(1, std::memory_order_relaxed);
    last_snapshot_unix_ms_.store(wall_unix_ms(), std::memory_order_relaxed);
    snapshot_bytes_.store(bytes.size(), std::memory_order_relaxed);
    snapshot_entries_.store(data.entries.size(), std::memory_order_relaxed);
    snapshot_policies_.store(data.policies.size(), std::memory_order_relaxed);
    return true;
}

void StateStore::append_wal(const CacheEntryRecord& entry) {
    std::size_t written = wal_.append(entry);
    if (written == 0) return;
    wal_appends_.fetch_add(1, std::memory_order_relaxed);
    wal_bytes_.fetch_add(written, std::memory_order_relaxed);
}

StoreStatus StateStore::status() const {
    StoreStatus out;
    out.dir = options_.dir;
    out.snapshots_written = snapshots_written_.load(std::memory_order_relaxed);
    out.snapshot_failures = snapshot_failures_.load(std::memory_order_relaxed);
    out.last_snapshot_unix_ms = last_snapshot_unix_ms_.load(std::memory_order_relaxed);
    out.snapshot_bytes = snapshot_bytes_.load(std::memory_order_relaxed);
    out.snapshot_entries = snapshot_entries_.load(std::memory_order_relaxed);
    out.snapshot_policies = snapshot_policies_.load(std::memory_order_relaxed);
    out.wal_appends = wal_appends_.load(std::memory_order_relaxed);
    out.wal_bytes = wal_bytes_.load(std::memory_order_relaxed);
    out.restored = restored_.load(std::memory_order_relaxed);
    out.restored_entries = restored_entries_.load(std::memory_order_relaxed);
    out.wal_replayed = wal_replayed_.load(std::memory_order_relaxed);
    out.wal_discarded_bytes = wal_discarded_bytes_.load(std::memory_order_relaxed);
    return out;
}

}  // namespace agenp::store
