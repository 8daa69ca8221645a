#include "oracle.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <thread>
#include <tuple>

#include "asg/membership.hpp"
#include "asp/parser.hpp"

namespace pb {

namespace asg = agenp::asg;
namespace asp = agenp::asp;

namespace {

// Runs fn(worker) on `threads` threads and rethrows the first failure.
template <typename Fn>
void parallel(unsigned threads, Fn fn) {
    threads = std::max(1u, threads);
    std::vector<std::thread> pool;
    std::exception_ptr failure;
    std::mutex failure_mu;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            try {
                fn(t, threads);
            } catch (...) {
                std::lock_guard lock(failure_mu);
                if (!failure) failure = std::current_exception();
            }
        });
    }
    for (auto& th : pool) th.join();
    if (failure) std::rethrow_exception(failure);
}

}  // namespace

OracleReport check_replies(const Domain& domain, const std::map<std::uint64_t, std::string>& models,
                           const std::vector<Reply>& replies, unsigned threads) {
    OracleReport report;
    report.replies = replies.size();
    // Distinct (request, epoch, version) keys with their permit/deny counts.
    struct Key {
        std::uint32_t request, epoch;
        std::uint64_t version;
        std::size_t permits = 0, denies = 0;
        bool truth = false;
    };
    std::vector<Reply> sorted = replies;
    auto order = [](const Reply& a, const Reply& b) {
        return std::tie(a.version, a.epoch, a.request) < std::tie(b.version, b.epoch, b.request);
    };
    std::sort(sorted.begin(), sorted.end(), order);
    std::vector<Key> keys;
    for (const auto& r : sorted) {
        if (!models.contains(r.version)) {
            ++report.unverifiable;
            continue;
        }
        if (keys.empty() || keys.back().request != r.request || keys.back().epoch != r.epoch ||
            keys.back().version != r.version) {
            keys.push_back({r.request, r.epoch, r.version});
        }
        (r.permit ? keys.back().permits : keys.back().denies) += 1;
    }
    report.distinct = keys.size();

    parallel(threads, [&](unsigned worker, unsigned workers) {
        std::map<std::uint64_t, asg::AnswerSetGrammar> grammars;
        std::map<std::uint32_t, asp::Program> contexts;
        for (std::size_t i = worker; i < keys.size(); i += workers) {
            auto& key = keys[i];
            auto g = grammars.find(key.version);
            if (g == grammars.end()) {
                g = grammars.emplace(key.version, asg::AnswerSetGrammar::parse(models.at(key.version))).first;
            }
            auto c = contexts.find(key.epoch);
            if (c == contexts.end()) {
                c = contexts.emplace(key.epoch, asp::parse_program(context_text(domain, key.epoch))).first;
            }
            key.truth = asg::in_language(g->second, domain.tokens[key.request], c->second);
        }
    });

    for (const auto& key : keys) {
        std::size_t wrong = key.truth ? key.denies : key.permits;
        if (wrong == 0) continue;
        report.wrong += wrong;
        if (report.samples.size() < 5) {
            report.samples.push_back("request '" + domain.text[key.request] + "' epoch " +
                                     std::to_string(key.epoch) + " model " + std::to_string(key.version) +
                                     ": replied " + (key.truth ? "deny" : "permit") + " " +
                                     std::to_string(wrong) + "x, membership says " +
                                     (key.truth ? "permit" : "deny"));
        }
    }
    return report;
}

double policy_agreement(const Domain& domain, const std::string& model_text,
                        const xa::XacmlPolicy& truth, unsigned threads) {
    threads = std::max(1u, threads);
    std::vector<double> agree(threads, 0.0);
    std::vector<std::size_t> counts(threads, 0);
    // No rule reads the background facts, so they cannot change a decision;
    // leaving them out makes each of the ~27.6k checks about 3x cheaper.
    xa::Bridge bare = domain.bridge;
    bare.options.background = asp::Program();
    parallel(threads, [&](unsigned worker, unsigned workers) {
        auto grammar = asg::AnswerSetGrammar::parse(model_text);
        std::vector<xa::Request> slice;
        for (std::size_t i = worker; i < domain.universe.size(); i += workers) {
            slice.push_back(domain.universe[i]);
        }
        counts[worker] = slice.size();
        agree[worker] = xa::agreement(bare, grammar, truth, slice) * static_cast<double>(slice.size());
    });
    double total = 0;
    std::size_t n = 0;
    for (unsigned t = 0; t < threads; ++t) {
        total += agree[t];
        n += counts[t];
    }
    return n == 0 ? 1.0 : total / static_cast<double>(n);
}

}  // namespace pb
