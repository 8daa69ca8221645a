#include "obs/phase.hpp"

#include <atomic>
#include <string>

#include "obs/reqtrace.hpp"

namespace agenp::obs {

namespace {

thread_local PhaseTimes* t_phase_times = nullptr;

void feed(PhaseId id, std::uint64_t start_ns, std::uint64_t end_ns, bool metrics,
          PhaseTimes* times) {
    std::uint64_t elapsed_ns = end_ns > start_ns ? end_ns - start_ns : 0;
    if (metrics) phase_histogram(id).observe(elapsed_ns);
    if (times != nullptr) times->ns[phase_index(id)] += elapsed_ns;
}

}  // namespace

Histogram& phase_histogram(PhaseId id) {
    // A phase registers its histogram on first use, so the registry lists
    // the phases that ran; after that the hot path is an index. Two
    // threads racing on the first use get the same instrument back.
    static std::array<std::atomic<Histogram*>, kPhaseCount> histograms{};
    std::atomic<Histogram*>& slot = histograms[phase_index(id)];
    Histogram* histogram = slot.load(std::memory_order_acquire);
    if (histogram == nullptr) {
        histogram = &metrics().histogram("phase_ns", {{"phase", std::string(phase_name(id))}});
        slot.store(histogram, std::memory_order_release);
    }
    return *histogram;
}

PhaseTimesScope::PhaseTimesScope(PhaseTimes* times) : prev_(t_phase_times) {
    t_phase_times = times;
}

PhaseTimesScope::~PhaseTimesScope() { t_phase_times = prev_; }

Phase::Phase(PhaseId id)
    : id_(id), metrics_(metrics_enabled()), times_(t_phase_times), trace_(current_trace()) {
    if (!metrics_ && times_ == nullptr && trace_ == nullptr) return;
    start_ns_ = monotonic_ns();
    if (trace_ != nullptr) span_ = trace_->begin_span(id_, start_ns_);
}

Phase::~Phase() {
    if (!metrics_ && times_ == nullptr && trace_ == nullptr) return;
    std::uint64_t end_ns = monotonic_ns();
    if (trace_ != nullptr) trace_->end_span(span_, end_ns);
    feed(id_, start_ns_, end_ns, metrics_, times_);
}

void record_phase(PhaseId id, std::uint64_t start_ns, std::uint64_t end_ns, PhaseTimes* times,
                  TraceContext* trace) {
    if (trace != nullptr) trace->end_span(trace->begin_span(id, start_ns), end_ns);
    feed(id, start_ns, end_ns, metrics_enabled(), times);
}

}  // namespace agenp::obs
