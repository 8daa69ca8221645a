// Lock-contention profiling: drop-in mutex wrappers that attribute wait
// time to named locks (DESIGN.md section "Observability"), annotated as
// thread-safety capabilities (DESIGN.md section 12).
//
// The serving layer's scaling questions ("where do the cache-off threads
// stall?") cannot be answered by latency histograms alone — they need to
// know which lock was waited on and for how long. ProfiledMutex and
// ProfiledSharedMutex satisfy the standard Lockable / SharedLockable
// requirements and record per-lock:
//   - acquisitions: every successful lock (shared or exclusive),
//   - contentions: acquisitions that lost the try_lock fast path,
//   - wait_us:     histogram of slow-path wait time.
//
// Both are CAPABILITY("mutex") types, so fields can be GUARDED_BY them
// and clang's -Wthread-safety checks the discipline at compile time.
// Lock through the scoped types below (ProfiledMutexLock,
// ProfiledWriteLock, ProfiledReadLock) — std::lock_guard and friends
// carry no thread-safety annotations, so the analysis cannot see
// through them.
//
// Cost model: the uncontended path is one try_lock plus one relaxed
// atomic add — near-zero. Only the contended path reads the clock. With
// set_lock_profiling_enabled(false) even the counter bump is skipped and
// the wrappers degenerate to a plain try_lock/lock pair.
//
// Stats objects are owned by a process-wide LockRegistry keyed by name;
// several mutexes may share one name (the 16 decision-cache shard locks
// all report as "srv.cache_shard"), aggregating naturally.
//
// Lock hierarchy: named locks carry a rank (lock_rank_of), and a
// debug-build checker aborts the process when a thread acquires a ranked
// lock while holding one of equal or higher rank — a lock-order
// inversion that could deadlock under another interleaving. The global
// order (DESIGN.md section 12):
//
//   rank  lock name         held while taking ->
//     10  srv.model         srv.cache_shard, asg.memo, symbol.intern
//     20  srv.cache_shard   (leaf)
//     25  asg.memo          (leaf)
//     40  srv.audit         (leaf)
//     50  srv.conn.outbox   (leaf)
//     60  symbol.intern     (leaf)
//
// Unranked names are exempt (util::Mutex internals are invisible here —
// they are plain capabilities, not profiled locks). The checker defaults
// to on in debug builds (!NDEBUG) and off otherwise.
#pragma once

#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "util/thread_annotations.hpp"

namespace agenp::obs {

// Global kill switch, independent of metrics_enabled(): lock profiling
// defaults to on because its fast path is one relaxed add.
bool lock_profiling_enabled();
void set_lock_profiling_enabled(bool enabled);

// Runtime lock-order checking (inversion -> stderr report + abort).
// Defaults to on in debug builds, off under NDEBUG. Toggle only while no
// ranked locks are held.
bool lock_order_checking_enabled();
void set_lock_order_checking(bool enabled);

// A named lock's place in the global hierarchy. rank 0 = unranked
// (exempt from order checking); name points at the static rank table.
struct LockRank {
    int rank = 0;
    const char* name = "";
};

[[nodiscard]] LockRank lock_rank_of(std::string_view name);

namespace detail {
// Per-thread held-lock bookkeeping for the order checker. acquire checks
// for inversion (reporting to stderr and aborting when `enforce`), then
// records the lock; release forgets it. Called only for ranked locks.
void lock_order_acquire(const void* mu, const LockRank& rank, bool enforce = true);
void lock_order_release(const void* mu);
}  // namespace detail

// Per-named-lock instrument. All mutation is lock-free.
class LockStats {
public:
    void record_uncontended() { acquisitions_.add(1); }
    void record_contended(std::uint64_t wait_ns) {
        acquisitions_.add(1);
        contentions_.add(1);
        wait_us_.observe(wait_ns / 1000);
    }

    [[nodiscard]] std::uint64_t acquisitions() const { return acquisitions_.value(); }
    [[nodiscard]] std::uint64_t contentions() const { return contentions_.value(); }
    [[nodiscard]] Histogram::Snapshot wait_us() const { return wait_us_.snapshot(); }

    void reset() {
        acquisitions_.reset();
        contentions_.reset();
        wait_us_.reset();
    }

private:
    Counter acquisitions_;
    Counter contentions_;
    Histogram wait_us_;
};

struct LockStatsSnapshot {
    std::string name;
    std::uint64_t acquisitions = 0;
    std::uint64_t contentions = 0;
    Histogram::Snapshot wait_us;

    [[nodiscard]] double contention_rate() const {
        return acquisitions == 0 ? 0.0
                                 : static_cast<double>(contentions) / static_cast<double>(acquisitions);
    }
};

class LockRegistry {
public:
    // Stable for the life of the process; same name -> same instrument.
    LockStats& get(std::string_view name);

    [[nodiscard]] std::vector<LockStatsSnapshot> snapshot() const;

    // {"name":{"acquisitions":..,"contentions":..,"wait_us_total":..,
    //          "wait_us_p50":..,"wait_us_p99":..,"wait_us_max":..},...}
    [[nodiscard]] std::string render_json() const;
    // Aligned table sorted by total wait descending.
    [[nodiscard]] std::string render_text() const;

    // Zeroes every instrument (names stay registered).
    void reset();

    LockRegistry();
    ~LockRegistry();
    LockRegistry(const LockRegistry&) = delete;
    LockRegistry& operator=(const LockRegistry&) = delete;

private:
    struct Impl;
    Impl* impl_;
};

// The process-wide registry. Never destroyed (the symbol intern table's
// locks may be used during static teardown).
LockRegistry& locks();

// std::mutex with contention accounting. Satisfies Lockable and is a
// thread-safety capability.
class CAPABILITY("mutex") ProfiledMutex {
public:
    explicit ProfiledMutex(std::string_view name)
        : stats_(&locks().get(name)), rank_(lock_rank_of(name)) {}
    ProfiledMutex(const ProfiledMutex&) = delete;
    ProfiledMutex& operator=(const ProfiledMutex&) = delete;

    void lock() ACQUIRE() {
        // Record (and order-check) before blocking: the thread does
        // nothing else while it waits, so the early push is equivalent,
        // and an inversion reports before it can deadlock.
        if (rank_.rank != 0 && lock_order_checking_enabled()) {
            detail::lock_order_acquire(this, rank_);
        }
        if (mu_.try_lock()) {
            if (lock_profiling_enabled()) stats_->record_uncontended();
            return;
        }
        if (!lock_profiling_enabled()) {
            mu_.lock();
            return;
        }
        std::uint64_t start = monotonic_ns();
        mu_.lock();
        stats_->record_contended(monotonic_ns() - start);
    }

    bool try_lock() TRY_ACQUIRE(true) {
        if (!mu_.try_lock()) return false;
        // Recorded but not enforced: a failed try_lock cannot deadlock,
        // and try-then-back-off is the legitimate escape from the
        // hierarchy. Locks taken *under* this hold are still checked.
        if (rank_.rank != 0 && lock_order_checking_enabled()) {
            detail::lock_order_acquire(this, rank_, /*enforce=*/false);
        }
        if (lock_profiling_enabled()) stats_->record_uncontended();
        return true;
    }

    void unlock() RELEASE() {
        if (rank_.rank != 0) detail::lock_order_release(this);
        mu_.unlock();
    }

    [[nodiscard]] const LockStats& stats() const { return *stats_; }
    [[nodiscard]] const LockRank& rank() const { return rank_; }

private:
    std::mutex mu_;
    LockStats* stats_;
    LockRank rank_;
};

// std::shared_mutex with contention accounting on both the exclusive and
// the shared path. Satisfies SharedLockable and is a thread-safety
// capability.
class CAPABILITY("mutex") ProfiledSharedMutex {
public:
    explicit ProfiledSharedMutex(std::string_view name)
        : stats_(&locks().get(name)), rank_(lock_rank_of(name)) {}
    ProfiledSharedMutex(const ProfiledSharedMutex&) = delete;
    ProfiledSharedMutex& operator=(const ProfiledSharedMutex&) = delete;

    void lock() ACQUIRE() {
        if (rank_.rank != 0 && lock_order_checking_enabled()) {
            detail::lock_order_acquire(this, rank_);
        }
        if (mu_.try_lock()) {
            if (lock_profiling_enabled()) stats_->record_uncontended();
            return;
        }
        if (!lock_profiling_enabled()) {
            mu_.lock();
            return;
        }
        std::uint64_t start = monotonic_ns();
        mu_.lock();
        stats_->record_contended(monotonic_ns() - start);
    }

    bool try_lock() TRY_ACQUIRE(true) {
        if (!mu_.try_lock()) return false;
        if (rank_.rank != 0 && lock_order_checking_enabled()) {
            detail::lock_order_acquire(this, rank_, /*enforce=*/false);
        }
        if (lock_profiling_enabled()) stats_->record_uncontended();
        return true;
    }

    void unlock() RELEASE() {
        if (rank_.rank != 0) detail::lock_order_release(this);
        mu_.unlock();
    }

    void lock_shared() ACQUIRE_SHARED() {
        // Shared holders participate in the hierarchy too: holding
        // srv.model shared while taking srv.cache_shard must still rank.
        if (rank_.rank != 0 && lock_order_checking_enabled()) {
            detail::lock_order_acquire(this, rank_);
        }
        if (mu_.try_lock_shared()) {
            if (lock_profiling_enabled()) stats_->record_uncontended();
            return;
        }
        if (!lock_profiling_enabled()) {
            mu_.lock_shared();
            return;
        }
        std::uint64_t start = monotonic_ns();
        mu_.lock_shared();
        stats_->record_contended(monotonic_ns() - start);
    }

    bool try_lock_shared() TRY_ACQUIRE_SHARED(true) {
        if (!mu_.try_lock_shared()) return false;
        if (rank_.rank != 0 && lock_order_checking_enabled()) {
            detail::lock_order_acquire(this, rank_, /*enforce=*/false);
        }
        if (lock_profiling_enabled()) stats_->record_uncontended();
        return true;
    }

    void unlock_shared() RELEASE_SHARED() {
        if (rank_.rank != 0) detail::lock_order_release(this);
        mu_.unlock_shared();
    }

    [[nodiscard]] const LockStats& stats() const { return *stats_; }
    [[nodiscard]] const LockRank& rank() const { return rank_; }

private:
    std::shared_mutex mu_;
    LockStats* stats_;
    LockRank rank_;
};

// Scoped locks the thread-safety analysis can see through. Use these
// instead of std::lock_guard / std::unique_lock / std::shared_lock.

class SCOPED_CAPABILITY ProfiledMutexLock {
public:
    explicit ProfiledMutexLock(ProfiledMutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
    ~ProfiledMutexLock() RELEASE() { mu_.unlock(); }

    ProfiledMutexLock(const ProfiledMutexLock&) = delete;
    ProfiledMutexLock& operator=(const ProfiledMutexLock&) = delete;

private:
    ProfiledMutex& mu_;
};

// Exclusive (writer) hold of a ProfiledSharedMutex.
class SCOPED_CAPABILITY ProfiledWriteLock {
public:
    explicit ProfiledWriteLock(ProfiledSharedMutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
    ~ProfiledWriteLock() RELEASE() { mu_.unlock(); }

    ProfiledWriteLock(const ProfiledWriteLock&) = delete;
    ProfiledWriteLock& operator=(const ProfiledWriteLock&) = delete;

private:
    ProfiledSharedMutex& mu_;
};

// Shared (reader) hold of a ProfiledSharedMutex.
class SCOPED_CAPABILITY ProfiledReadLock {
public:
    explicit ProfiledReadLock(ProfiledSharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
        mu_.lock_shared();
    }
    ~ProfiledReadLock() RELEASE() { mu_.unlock_shared(); }

    ProfiledReadLock(const ProfiledReadLock&) = delete;
    ProfiledReadLock& operator=(const ProfiledReadLock&) = delete;

private:
    ProfiledSharedMutex& mu_;
};

}  // namespace agenp::obs
