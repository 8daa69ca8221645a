#include "store/store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
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
    // 0700: stored policies are full request strings (the audit log
    // stores only hashes), so the state dir is private to the serving user.
    if (::mkdir(options_.dir.c_str(), 0700) != 0 && errno != EEXIST) {
        throw std::runtime_error("cannot create state dir " + options_.dir + ": " +
                                 util::errno_string());
    }
    // Fail at startup, not at the first snapshot: create and remove the
    // temporary file every snapshot is written through.
    std::string probe = snapshot_path() + ".tmp";
    int fd = ::open(probe.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0600);
    if (fd < 0) {
        throw std::runtime_error("cannot write state dir " + options_.dir + ": " +
                                 util::errno_string());
    }
    ::close(fd);
    ::unlink(probe.c_str());
}

std::string StateStore::snapshot_path() const { return options_.dir + "/snapshot.agenp"; }

RestoreResult StateStore::restore() {
    obs::Phase phase(obs::PhaseId::StoreRestore);
    RestoreResult out;
    std::string bytes;
    if (!read_file(snapshot_path(), &bytes, nullptr)) return out;  // cold start
    std::string error;
    if (!decode_snapshot(bytes, &out.data, &error)) {
        out.data = SnapshotData{};
        out.warning = "ignoring snapshot: " + error;
        return out;
    }
    out.snapshot_loaded = true;
    restored_.store(true, std::memory_order_relaxed);
    snapshot_bytes_.store(bytes.size(), std::memory_order_relaxed);
    snapshot_policies_.store(out.data.policies.size(), std::memory_order_relaxed);
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
    snapshots_written_.fetch_add(1, std::memory_order_relaxed);
    last_snapshot_unix_ms_.store(wall_unix_ms(), std::memory_order_relaxed);
    snapshot_bytes_.store(bytes.size(), std::memory_order_relaxed);
    snapshot_policies_.store(data.policies.size(), std::memory_order_relaxed);
    return true;
}

StoreStatus StateStore::status() const {
    StoreStatus out;
    out.snapshots_written = snapshots_written_.load(std::memory_order_relaxed);
    out.snapshot_failures = snapshot_failures_.load(std::memory_order_relaxed);
    out.last_snapshot_unix_ms = last_snapshot_unix_ms_.load(std::memory_order_relaxed);
    out.snapshot_bytes = snapshot_bytes_.load(std::memory_order_relaxed);
    out.snapshot_policies = snapshot_policies_.load(std::memory_order_relaxed);
    out.restored = restored_.load(std::memory_order_relaxed);
    return out;
}

}  // namespace agenp::store
