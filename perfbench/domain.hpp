// The benchmark's XACML coalition domain, generated from the workload seed.
//
// Server, load generator, oracle and traced replay all rebuild the same
// domain from the same seed, so they agree on the request universe, the
// served grammar text, the context of every epoch and the hidden truth of
// every drift phase without shipping any of it between processes.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "agenp/ams.hpp"
#include "util/rng.hpp"
#include "xacml/learning_bridge.hpp"

namespace pb {

namespace fw = agenp::framework;
namespace xa = agenp::xacml;

// Workloads (see perfbench/README.md for why each exists).
enum class Workload { HotZipf, ChurnMiss, DriftAdapt };

bool parse_workload(std::string_view name, Workload& out);

// Fixed serving shape shared by the server and the client.
inline constexpr std::size_t kServerWorkers = 2;
inline constexpr std::size_t kDataConnections = 2;
// churn_miss's closed-loop window and hot_zipf's cap on requests in flight.
inline constexpr std::size_t kMaxOutstanding = 32;
inline constexpr std::size_t kChurnEpochDecisions = 64;
inline constexpr double kZipfExponent = 1.1;
inline constexpr double kDriftRatePerSecond = 400.0;
// Cap on drift_adapt's requests in flight, below the server's 1,024-request
// queue, so a learn stall makes the generator late instead of overloading it.
inline constexpr std::size_t kDriftMaxOutstanding = 900;
// hot_zipf's arrival rate: below the hit path's capacity even when the host
// steals most of its CPU, so each loop pass batches a rate-determined number
// of replies.
inline constexpr double kHotRatePerSecond = 8000.0;
inline constexpr std::size_t kLearnLogSize = 400;
// Decision-history ring of the served AMS. Smaller than the library default
// (65,536) so the warm-up can fill it on the miss-bound workloads within a
// run; the timed phase must start with a full ring (see README.md).
inline constexpr std::size_t kMonitorCapacity = 4096;

// SplitMix-style mixing of the run seed with a purpose tag, so each use of
// the seed draws an independent stream.
std::uint64_t mix(std::uint64_t seed, std::uint64_t tag);

struct Domain {
    std::uint64_t seed = 0;
    xa::Schema schema;
    xa::Bridge bridge;  // grammar, hypothesis space; options.background = background
    std::vector<xa::Request> universe;
    std::vector<agenp::cfg::TokenString> tokens;  // per universe index
    std::vector<std::string> text;                // detokenized request, per index
    std::string grammar_text;                     // served initial grammar
    std::string background_text;                  // ~24 decision-irrelevant facts
    std::vector<std::string> roles;               // schema role values
};

// role 8 x dept 6 x action 4 x resource 6 x hour 24 = 27,648 requests.
std::shared_ptr<const Domain> make_domain(std::uint64_t seed);

// The PIP context of `epoch`: the background facts, the suspended roles of
// that epoch (what the served grammar's hand-written constraint reads) and
// a roster-version fact that makes every epoch's context distinct.
// Every epoch suspends exactly two of the eight roles.
std::string context_text(const Domain& domain, std::uint64_t epoch);

// Hidden truth of drift phase `phase` (phase 0 is the bootstrap truth).
xa::XacmlPolicy truth(const Domain& domain, std::uint64_t phase);

// A seeded sample of requests labelled by the phase's truth, as learning
// examples under the background context.
struct LabelledFeedback {
    std::vector<agenp::ilp::Example> positive;
    std::vector<agenp::ilp::Example> negative;
};
LabelledFeedback labelled_feedback(const Domain& domain, std::uint64_t phase);

// Builds an AMS over `grammar` exactly as the benchmark server does: the
// bridge's hypothesis space, the suspended predicate declared external for
// the lint gate, forbidden strings for the violation detector, and the
// benchmark's monitor ring.
std::unique_ptr<fw::AutonomousManagedSystem> make_ams(const Domain& domain,
                                                      agenp::asg::AnswerSetGrammar grammar);

// Requests the violation detector must find rejected by every adoptable
// model: suspended roles asking for access under a context that suspends
// them.
std::vector<agenp::ilp::Example> forbidden_examples(const Domain& domain);

// The switchable PIP source: every gather copies the current epoch's
// program, and the load generator's `!ctx` control line replaces it.
class ContextSource {
public:
    explicit ContextSource(agenp::asp::Program initial) : current_(std::move(initial)) {}
    agenp::asp::Program get() const {
        std::lock_guard lock(mu_);
        return current_;
    }
    void set(agenp::asp::Program next) {
        std::lock_guard lock(mu_);
        current_ = std::move(next);
    }

private:
    mutable std::mutex mu_;
    agenp::asp::Program current_;
};

// Seeded request streams over universe indices.
class RequestStream {
public:
    RequestStream(const Domain& domain, Workload workload, std::uint64_t seed);
    std::uint32_t next();

private:
    bool zipf_ = true;
    agenp::util::Rng rng_;
    std::vector<double> cdf_;              // Zipf CDF by rank
    std::vector<std::uint32_t> by_rank_;   // rank -> universe index
};

}  // namespace pb
