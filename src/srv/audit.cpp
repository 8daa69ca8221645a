#include "srv/audit.hpp"

#include <cerrno>
#include <chrono>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/errors.hpp"

namespace agenp::srv {

namespace {

std::uint64_t wall_ms() {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                          std::chrono::system_clock::now().time_since_epoch())
                                          .count());
}

}  // namespace

std::string audit_entry_json(const AuditEntry& entry) {
    std::string out = "{";
    out += "\"ts_ms\":" + std::to_string(entry.ts_ms);
    out += ",\"trace_id\":" + std::to_string(entry.trace_id);
    out += ",\"client\":" + std::to_string(entry.client_id);
    out += ",\"request_hash\":\"" + std::to_string(entry.request_hash) + "\"";
    out += ",\"outcome\":\"" + obs::json_escape(entry.outcome) + "\"";
    out += ",\"strategy\":\"" + obs::json_escape(entry.strategy) + "\"";
    out += std::string(",\"cache_hit\":") + (entry.cache_hit ? "true" : "false");
    out += ",\"model_version\":" + std::to_string(entry.model_version);
    out += ",\"replica\":" + std::to_string(entry.replica);
    out += ",\"latency_us\":" + std::to_string(entry.latency_us);
    out += ",\"queue_us\":" + std::to_string(entry.queue_us);
    out += ",\"solve_us\":" + std::to_string(entry.solve_us);
    out += "}";
    return out;
}

AuditLog::AuditLog(AuditOptions options) : options_(std::move(options)) {
    if (options_.sample_every == 0) options_.sample_every = 1;
    if (options_.max_bytes == 0) options_.max_bytes = 1;
    file_ = std::fopen(options_.path.c_str(), "ae");
    if (file_ == nullptr) {
        throw std::runtime_error("cannot open audit log " + options_.path + ": " +
                                 util::errno_string());
    }
    long pos = std::ftell(file_);
    bytes_ = pos > 0 ? static_cast<std::uint64_t>(pos) : 0;
}

AuditLog::~AuditLog() {
    obs::ProfiledMutexLock lock(mutex_);
    if (file_ != nullptr) std::fclose(file_);
    file_ = nullptr;
}

void AuditLog::rotate_locked() {
    std::fclose(file_);
    file_ = nullptr;
    std::string previous = options_.path + ".1";
    std::rename(options_.path.c_str(), previous.c_str());
    file_ = std::fopen(options_.path.c_str(), "ae");
    bytes_ = 0;
    ++rotations_;
}

void AuditLog::record(AuditEntry entry) {
    if (entry.ts_ms == 0) entry.ts_ms = wall_ms();
    std::string line = audit_entry_json(entry);
    line.push_back('\n');

    obs::ProfiledMutexLock lock(mutex_);
    std::uint64_t seen = seen_++;
    if (options_.sample_every > 1 && seen % options_.sample_every != 0) {
        ++sampled_out_;
        return;
    }
    if (file_ != nullptr && bytes_ + line.size() > options_.max_bytes && bytes_ > 0) {
        rotate_locked();
    }
    if (file_ == nullptr ||
        std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
        ++write_errors_;
        return;
    }
    std::fflush(file_);
    bytes_ += line.size();
    ++recorded_;
}

AuditStats AuditLog::stats() const {
    obs::ProfiledMutexLock lock(mutex_);
    return {recorded_, sampled_out_, rotations_, write_errors_};
}

}  // namespace agenp::srv
