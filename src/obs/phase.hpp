// Phase timing: one primitive for every layer boundary of a decision and
// of model adoption (DESIGN.md section 7).
//
// A Phase scope reads the monotonic clock at entry and at exit and feeds
// the elapsed nanoseconds, untruncated, to up to three sinks:
//   1. the phase's histogram, `phase_ns{phase="<name>"}` in the process
//      registry — `/metrics`, and through the rolling window the
//      `/statz` costs and windowed latency, read it;
//   2. the thread's per-request PhaseTimes, when the serving layer
//      installed one — the flight record and the audit line read their
//      queue and solve times from it;
//   3. the thread's TraceContext (reqtrace.hpp), when the request is
//      traced — the span opens at entry, so nested phases become children.
// Sink 1 is a fixed array indexed by PhaseId: no string lookup and no
// registration lock on the hot path. With metrics disabled and neither a
// PhaseTimes nor a trace installed, a Phase reads no clock.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "obs/metrics.hpp"

namespace agenp::obs {

class TraceContext;

// One value per layer boundary; kPhaseNames below gives each its name.
enum class PhaseId : std::uint8_t {
    SrvRequest,
    SrvQueueWait,
    SrvContext,
    SrvCacheProbe,
    SrvSolve,
    AmsHandleRequest,
    PdpDecide,
    PadapMaybeAdapt,
    PadapAdapt,
    PrepRefresh,
    PcpLintModel,
    PcpDetectViolations,
    AsgMembership,
    AsgMemoProbe,
    CfgParse,
    CfgExtractTrees,
    AspGround,
    AspSolve,
    IlpLearn,
    LintProgram,
    LintAsg,
    StoreRestore,
    StoreSnapshot,
};

inline constexpr std::size_t kPhaseCount = static_cast<std::size_t>(PhaseId::StoreSnapshot) + 1;

// The names traces, `/metrics`, `/statz` costs and the flat profile report.
inline constexpr std::array<std::string_view, kPhaseCount> kPhaseNames{
    "srv.request",
    "srv.queue_wait",
    "srv.context",
    "srv.cache_probe",
    "srv.solve",
    "agenp.ams.handle_request",
    "agenp.pdp.decide",
    "agenp.padap.maybe_adapt",
    "agenp.padap.adapt",
    "agenp.prep.refresh",
    "agenp.pcp.lint_model",
    "agenp.pcp.detect_violations",
    "asg.membership",
    "asg.memo_probe",
    "cfg.parse",
    "cfg.extract_trees",
    "asp.ground",
    "asp.solve",
    "ilp.learn",
    "analysis.lint_program",
    "analysis.lint_asg",
    "store.restore",
    "store.snapshot",
};

constexpr std::size_t phase_index(PhaseId id) { return static_cast<std::size_t>(id); }
constexpr std::string_view phase_name(PhaseId id) { return kPhaseNames[phase_index(id)]; }

// One request's nanoseconds by phase, summed over every scope of a phase
// that ran while the array was installed.
struct PhaseTimes {
    std::array<std::uint64_t, kPhaseCount> ns{};

    [[nodiscard]] std::uint64_t us(PhaseId id) const { return ns[phase_index(id)] / 1000; }
};

// Installs `times` (may be null) as this thread's PhaseTimes sink for the
// scope's lifetime; restores the previous one on exit.
class PhaseTimesScope {
public:
    explicit PhaseTimesScope(PhaseTimes* times);
    ~PhaseTimesScope();
    PhaseTimesScope(const PhaseTimesScope&) = delete;
    PhaseTimesScope& operator=(const PhaseTimesScope&) = delete;

private:
    PhaseTimes* prev_;
};

// Times one phase from construction to destruction on this thread.
class Phase {
public:
    explicit Phase(PhaseId id);
    ~Phase();
    Phase(const Phase&) = delete;
    Phase& operator=(const Phase&) = delete;

private:
    PhaseId id_;
    bool metrics_;  // sink 1, decided at entry
    PhaseTimes* times_;
    TraceContext* trace_;
    std::size_t span_ = 0;
    std::uint64_t start_ns_ = 0;
};

// Feeds an interval the caller timed with monotonic_ns() to the same
// sinks, for phases that begin on one thread and end on another (queue
// wait, the whole request). The request's sinks are passed explicitly;
// the trace gets a closed span under its innermost open one.
void record_phase(PhaseId id, std::uint64_t start_ns, std::uint64_t end_ns, PhaseTimes* times,
                  TraceContext* trace);

// The phase's histogram in the process registry, registered on first use.
Histogram& phase_histogram(PhaseId id);

}  // namespace agenp::obs
