#include "replay.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>

#include "agenp/pcp.hpp"
#include "asg/memo.hpp"
#include "asp/parser.hpp"
#include "srv/cache.hpp"
#include "srv/wire.hpp"
#include "stats.hpp"

namespace pb {

namespace asg = agenp::asg;
namespace asp = agenp::asp;
namespace cfg = agenp::cfg;
namespace ilp = agenp::ilp;
namespace srv = agenp::srv;

namespace {

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// In-memory span store. A span is (name, start, end, parent, request id);
// begin/end nest, so a span's parent is the innermost open one. When
// disabled, recording costs one branch per call.
class Spans {
public:
    struct Span {
        std::uint32_t name = 0;
        std::int32_t parent = -1;
        std::uint64_t request = 0;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
    };

    explicit Spans(bool enabled) : enabled_(enabled) {}

    std::int32_t begin(std::uint32_t name, std::uint64_t request);
    void end(std::int32_t index);

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<std::int32_t> open_;
};

// Per-name self time (duration minus the part covered by child spans)
// summed over the trees whose root is named `root`.
struct SelfTime {
    std::string name;
    std::size_t count = 0;
    double self_us = 0;
};
std::vector<SelfTime> self_times(const Spans& spans, const std::vector<std::string>& names,
                                 const std::string& root);

// Span names; the prefix before the first '.' is the layer.
enum Name : std::uint32_t {
    kRequest,        // root: one replayed request along the server's path
    kWarmRequest,    // root: the same path while pre-warming (hot_zipf)
    kWire,           // parse_wire_request / wire_decision_json
    kPipGather,      // PolicyInformationPoint::gather
    kCacheProbe,     // DecisionCache::make_key + lookup
    kMembership,     // the memo membership path the PDP runs on a miss
    kCfgParse,       // cfg::parse_trees
    kMemoGroundRoot, // MemoizedGrounding::ground_root
    kAspSolve,       // asp::solve
    kMonitorRecord,  // DecisionMonitor::record
    kDecideCall,     // root: AutonomousManagedSystem::decide on a miss
    kPlain,          // root: plain Definition-2 membership of a miss
    kInstantiate,    // asg::instantiate
    kAspGround,      // asp::ground
    kAdopt,          // root: learning and checking one model
    kLearn,          // ilp::learn
    kLint,           // PolicyCheckingPoint::lint_model
    kViolations,     // PolicyCheckingPoint::detect_violations
    kNameCount,
};

const std::vector<std::string>& names() {
    static const std::vector<std::string> n = {
        "request",          "warm_request", "srv.wire",        "agenp.pip_gather",
        "srv.cache_probe",  "agenp.pdp",    "cfg.parse",       "asg.memo_ground_root",
        "asp.solve",        "agenp.monitor_record", "agenp.decide", "asg.membership_plain",
        "asg.instantiate",  "asp.ground",   "agenp.adopt",     "ilp.learn",
        "agenp.lint",       "agenp.violations"};
    return n;
}

class Scope {
public:
    Scope(Spans& spans, Name name, std::uint64_t request) : spans_(spans), index_(spans.begin(name, request)) {}
    ~Scope() { spans_.end(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

private:
    Spans& spans_;
    std::int32_t index_;
};

struct Counts {
    std::vector<double> trees, gpt_rules, ground_rules, decisions, conflicts;
};

struct Pass {
    double loop_s = 0;
    std::size_t requests = 0;
};

class Replay {
public:
    Replay(const Domain& domain, Workload workload, std::uint64_t seed, bool smoke)
        : domain_(domain), workload_(workload), seed_(seed) {
        std::size_t scale = smoke ? 4 : 1;
        switch (workload) {
            case Workload::HotZipf: requests_ = 4000 / scale; break;
            case Workload::ChurnMiss: requests_ = 20 * kChurnEpochDecisions / scale; break;
            case Workload::DriftAdapt: requests_ = 1600 / scale; break;
        }
        phases_ = workload == Workload::DriftAdapt ? (smoke ? 1 : 4) : 1;
    }

    // Learns and checks every model the run adopts (bootstrap + drifts),
    // timing learner, lint and violation detector as `adopt` trees.
    void learn_models(Spans& spans) {
        auto initial = asg::AnswerSetGrammar::parse(domain_.grammar_text);
        auto forbidden = forbidden_examples(domain_);
        for (std::uint64_t phase = 0; phase <= phases_; ++phase) {
            Scope adopt(spans, kAdopt, phase);
            auto feedback = labelled_feedback(domain_, phase);
            ilp::LearningTask task{initial, domain_.bridge.space, feedback.positive, feedback.negative};
            ilp::LearnResult learned;
            {
                Scope s(spans, kLearn, phase);
                learned = ilp::learn(task);
            }
            if (!learned.found) throw std::runtime_error("replay: learning failed: " + learned.failure_reason);
            auto candidate = initial.with_rules(learned.hypothesis);
            agenp::analysis::LintOptions lint;
            lint.external_predicates.push_back(agenp::util::Symbol("suspended"));
            for (const auto* bucket : {&feedback.positive, &feedback.negative}) {
                for (const auto& ex : *bucket) {
                    for (const auto& rule : ex.context.rules()) {
                        if (rule.head) lint.external_predicates.push_back(rule.head->predicate);
                    }
                }
            }
            bool lint_errors = false;
            {
                Scope s(spans, kLint, phase);
                lint_errors = fw::PolicyCheckingPoint::lint_model(candidate, lint).has_errors();
            }
            bool valid = false;
            {
                Scope s(spans, kViolations, phase);
                valid = fw::PolicyCheckingPoint::detect_violations(candidate, forbidden).valid();
            }
            if (lint_errors || !valid) throw std::runtime_error("replay: candidate model rejected");
            learn_stats_.push_back(learned.stats);
            adoptions_.push_back(std::move(candidate));
        }
    }

    // One pass over the stream; spans are recorded when `spans` is enabled.
    Pass run(Spans& spans, Counts& counts) {
        auto ams = make_ams(domain_, asg::AnswerSetGrammar::parse(domain_.grammar_text));
        ContextSource context(asp::parse_program(context_text(domain_, 0)));
        ams->pip().add_source("roster", [&context] { return context.get(); });
        srv::DecisionCache cache;
        asg::GroundingMemo memo;        // the PDP path this replay decomposes
        asg::GroundingMemo decide_memo;  // installed on the AMS for the opaque decide call
        ams->set_grounding_memo(&decide_memo);
        std::size_t adopted = 0;
        auto adopt_next = [&] {
            ams->representations().store(adoptions_[adopted], "replay");
            ++adopted;
            memo.set_epoch(ams->model_version());
            decide_memo.set_epoch(ams->model_version());
        };
        adopt_next();  // bootstrap

        RequestStream stream(domain_, workload_, seed_);
        std::vector<std::uint32_t> requests(requests_);
        for (auto& r : requests) r = stream.next();

        if (workload_ == Workload::HotZipf) {
            // Pre-warm every distinct replayed request, as the run's warm-up does.
            std::vector<char> seen(domain_.universe.size(), 0);
            std::uint64_t id = 1'000'000;
            for (auto r : requests) {
                if (seen[r]) continue;
                seen[r] = 1;
                decide_one(spans, counts, *ams, cache, memo, r, id++, kWarmRequest);
            }
        }

        // Hits are cheap, so hot_zipf replays its stream five times to give
        // the traced/untraced comparison enough work to time.
        std::size_t rounds = workload_ == Workload::HotZipf ? 5 : 1;
        std::uint32_t epoch = 0;
        std::size_t per_phase = requests_ / (phases_ + 1);
        auto start = now_ns();
        for (std::size_t i = 0; i < rounds * requests.size(); ++i) {
            if (workload_ == Workload::ChurnMiss && i > 0 && i % kChurnEpochDecisions == 0) {
                context.set(asp::parse_program(context_text(domain_, ++epoch)));
            }
            if (workload_ == Workload::DriftAdapt && i > 0 && i % per_phase == 0 && adopted < adoptions_.size()) {
                adopt_next();
            }
            decide_one(spans, counts, *ams, cache, memo, requests[i % requests.size()], i, kRequest);
        }
        ams->set_grounding_memo(nullptr);
        return {static_cast<double>(now_ns() - start) / 1e9, rounds * requests.size()};
    }

    const std::vector<ilp::LearnStats>& learn_stats() const { return learn_stats_; }

private:
    // One request along the server's path, as a `root` tree. A miss is then
    // decided again through the opaque AMS call and through plain
    // Definition-2 membership, each as its own top-level tree, and all
    // three verdicts must agree.
    void decide_one(Spans& spans, Counts& counts, fw::AutonomousManagedSystem& ams, srv::DecisionCache& cache,
                    asg::GroundingMemo& memo, std::uint32_t r, std::uint64_t id, Name root) {
        cfg::TokenString tokens;
        asp::Program context;
        bool miss = false;
        bool permitted = false;
        {
            Scope request(spans, root, id);
            srv::WireRequest wire;
            {
                Scope s(spans, kWire, id);
                std::string line = "{\"id\":" + std::to_string(id) + ",\"decide\":\"" + domain_.text[r] + "\"}";
                std::string error;
                auto parsed = srv::parse_wire_request(line, &error);
                if (!parsed) throw std::runtime_error("replay: wire request rejected: " + error);
                wire = std::move(*parsed);
                tokens = cfg::tokenize(wire.decide);
            }
            {
                Scope s(spans, kPipGather, id);
                context = ams.pip().gather();
            }
            std::uint64_t version = ams.model_version();
            srv::CacheKey key;
            std::optional<bool> hit;
            {
                Scope s(spans, kCacheProbe, id);
                key = srv::DecisionCache::make_key(tokens, context);
                hit = cache.lookup(key, version);
            }
            miss = !hit.has_value();
            if (hit) {
                permitted = *hit;
            } else {
                permitted = membership(spans, counts, ams.model(), tokens, context, memo, id);
                cache.insert(key, version, permitted);
            }
            {
                Scope s(spans, kMonitorRecord, id);
                fw::DecisionRecord record;
                record.request = tokens;
                record.context = context;
                record.permitted = permitted;
                record.model_version = version;
                ams.monitor().record(std::move(record));
            }
            {
                Scope s(spans, kWire, id);
                srv::Decision decision;
                decision.outcome = permitted ? srv::Outcome::Permit : srv::Outcome::Deny;
                decision.model_version = version;
                decision.cache_hit = hit.has_value();
                if (srv::wire_decision_json(wire, decision).empty()) {
                    throw std::runtime_error("replay: empty reply");
                }
            }
        }
        if (!miss) return;
        bool via_ams = false;
        {
            Scope s(spans, kDecideCall, id);
            via_ams = ams.decide(tokens, context);
        }
        bool plain = plain_membership(spans, counts, ams.model(), tokens, context, id);
        if (via_ams != permitted || plain != permitted) {
            throw std::runtime_error("replay: decision paths disagree on '" + domain_.text[r] + "'");
        }
    }

    // The membership check the PDP runs with a grounding memo installed
    // (asg::check_membership's memo branch), one public call per layer.
    bool membership(Spans& spans, Counts& counts, const asg::AnswerSetGrammar& model,
                    const cfg::TokenString& tokens, const asp::Program& context, asg::GroundingMemo& memo,
                    std::uint64_t id) {
        Scope pdp(spans, kMembership, id);
        asg::MembershipOptions options;
        std::vector<cfg::ParseNode> trees;
        {
            Scope s(spans, kCfgParse, id);
            trees = cfg::parse_trees(model.grammar(), tokens, options.parse);
        }
        counts.trees.push_back(static_cast<double>(trees.size()));
        asg::MemoizedGrounding memoized(&memo, model, context, options.grounding);
        if (!memoized.usable()) throw std::runtime_error("replay: memo gate rejected the served grammar");
        for (const auto& tree : trees) {
            asg::MemoizedGrounding::Root root;
            {
                Scope s(spans, kMemoGroundRoot, id);
                root = memoized.ground_root(tree);
            }
            if (root.verdict.has_value()) {
                if (*root.verdict) return true;
                continue;
            }
            asp::SolveResult solved;
            {
                Scope s(spans, kAspSolve, id);
                solved = asp::solve(*root.program, options.solve);
            }
            if (!solved.exhausted) memoized.store_verdict(root, solved.satisfiable());
            if (solved.satisfiable()) return true;
        }
        return false;
    }

    bool plain_membership(Spans& spans, Counts& counts, const asg::AnswerSetGrammar& model,
                          const cfg::TokenString& tokens, const asp::Program& context, std::uint64_t id) {
        Scope root(spans, kPlain, id);
        asg::MembershipOptions options;
        std::vector<cfg::ParseNode> trees;
        {
            Scope s(spans, kCfgParse, id);
            trees = cfg::parse_trees(model.grammar(), tokens, options.parse);
        }
        for (const auto& tree : trees) {
            asp::Program program;
            {
                Scope s(spans, kInstantiate, id);
                program = asg::instantiate(model, tree, context);
            }
            asp::GroundProgram ground;
            {
                Scope s(spans, kAspGround, id);
                ground = asp::ground(program, options.grounding);
            }
            asp::SolveResult solved;
            {
                Scope s(spans, kAspSolve, id);
                solved = asp::solve(ground, options.solve);
            }
            counts.gpt_rules.push_back(static_cast<double>(program.size()));
            counts.ground_rules.push_back(static_cast<double>(ground.rules().size()));
            counts.decisions.push_back(static_cast<double>(solved.stats.decisions));
            counts.conflicts.push_back(static_cast<double>(solved.stats.conflicts));
            if (solved.satisfiable()) return true;
        }
        return false;
    }

    const Domain& domain_;
    Workload workload_;
    std::uint64_t seed_;
    std::size_t requests_ = 0;
    std::uint64_t phases_ = 1;
    std::vector<asg::AnswerSetGrammar> adoptions_;  // learned and checked, in phase order
    std::vector<ilp::LearnStats> learn_stats_;
};

double mean(const std::vector<double>& v) {
    return v.empty() ? 0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

// Median duration (µs) of spans named `name` whose tree root is `root`
// (any root when kNameCount).
double median_us(const Spans& spans, Name name, Name root = kNameCount) {
    const auto& all = spans.spans();
    std::vector<double> d;
    for (const auto& s : all) {
        if (s.name != name) continue;
        if (root != kNameCount) {
            const Spans::Span* top = &s;
            while (top->parent >= 0) top = &all[static_cast<std::size_t>(top->parent)];
            if (top->name != root) continue;
        }
        d.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1000.0);
    }
    return median(d);
}

std::int32_t Spans::begin(std::uint32_t name, std::uint64_t request) {
    if (!enabled_) return -1;
    auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, open_.empty() ? -1 : open_.back(), request, now_ns(), 0});
    open_.push_back(index);
    return index;
}

void Spans::end(std::int32_t index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    open_.pop_back();
}

std::vector<SelfTime> self_times(const Spans& spans, const std::vector<std::string>& names,
                                 const std::string& root) {
    const auto& all = spans.spans();
    std::vector<double> child_ns(all.size(), 0.0);
    std::vector<std::uint32_t> root_of(all.size(), 0);
    for (std::size_t i = 0; i < all.size(); ++i) {
        const auto& s = all[i];
        root_of[i] = s.parent < 0 ? s.name : root_of[static_cast<std::size_t>(s.parent)];
        if (s.parent >= 0) {
            child_ns[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
        }
    }
    std::vector<SelfTime> out(names.size());
    for (std::size_t n = 0; n < names.size(); ++n) out[n].name = names[n];
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (names[root_of[i]] != root) continue;
        auto& cell = out[all[i].name];
        cell.count += 1;
        cell.self_us += (static_cast<double>(all[i].end_ns - all[i].start_ns) - child_ns[i]) / 1000.0;
    }
    std::erase_if(out, [](const SelfTime& s) { return s.count == 0; });
    return out;
}

}  // namespace

Metrics run_replay(const Domain& domain, Workload workload, std::uint64_t seed, bool smoke,
                   const std::string& spans_path) {
    Replay replay(domain, workload, seed, smoke);
    Spans spans(true);
    replay.learn_models(spans);

    // Untraced pass first, then the traced pass over identical work; the
    // difference in request-loop wall time is the tracing overhead.
    Spans off(false);
    Counts ignored;
    Pass untraced = replay.run(off, ignored);
    Counts counts;
    Pass traced = replay.run(spans, counts);

    auto self = self_times(spans, names(), "request");
    double total = 0, solver = 0;
    std::printf("PB_SELF %-22s %8s %12s %7s\n", "span", "count", "self_us", "share");
    for (const auto& s : self) total += s.self_us;
    for (const auto& s : self) {
        std::string layer = s.name.substr(0, s.name.find('.'));
        if (layer == "cfg" || layer == "asg" || layer == "asp") solver += s.self_us;
        std::printf("PB_SELF %-22s %8zu %12.1f %6.1f%%\n", s.name.c_str(), s.count, s.self_us,
                    total > 0 ? 100.0 * s.self_us / total : 0.0);
    }

    if (!spans_path.empty()) {
        std::ofstream out(spans_path);
        out << "{\"names\":[";
        for (std::size_t i = 0; i < names().size(); ++i) out << (i ? "," : "") << "\"" << names()[i] << "\"";
        out << "]}\n";
        const auto& all = spans.spans();
        for (std::size_t i = 0; i < all.size(); ++i) {
            const auto& s = all[i];
            out << "{\"i\":" << i << ",\"name\":\"" << names()[s.name] << "\",\"parent\":" << s.parent
                << ",\"request\":" << s.request << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
                << "}\n";
        }
    }

    std::vector<double> learn_s, coverage, nodes;
    for (const auto& s : spans.spans()) {
        if (s.name == kLearn) learn_s.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e9);
    }
    for (const auto& st : replay.learn_stats()) {
        coverage.push_back(static_cast<double>(st.coverage_checks));
        nodes.push_back(static_cast<double>(st.search_nodes));
    }
    // Per-request wire cost: request parse plus reply render.
    std::map<std::uint64_t, double> wire_by_request;
    for (const auto& s : spans.spans()) {
        if (s.name == kWire) wire_by_request[s.request] += static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
    }
    std::vector<double> wire;
    for (const auto& [id, us] : wire_by_request) wire.push_back(us);

    Metrics m;
    m.emplace_back("srv.wire_us", median(wire));
    m.emplace_back("srv.cache_probe_us", median_us(spans, kCacheProbe, kRequest));
    m.emplace_back("agenp.pip_gather_us", median_us(spans, kPipGather, kRequest));
    m.emplace_back("agenp.monitor_record_us", median_us(spans, kMonitorRecord, kRequest));
    m.emplace_back("agenp.decide_us", median_us(spans, kDecideCall));
    m.emplace_back("cfg.parse_us", median_us(spans, kCfgParse, kPlain));
    m.emplace_back("cfg.trees_per_request", mean(counts.trees));
    m.emplace_back("asg.instantiate_us", median_us(spans, kInstantiate));
    m.emplace_back("asg.gpt_rules", mean(counts.gpt_rules));
    m.emplace_back("asg.memo_ground_root_us", median_us(spans, kMemoGroundRoot));
    m.emplace_back("asp.ground_us", median_us(spans, kAspGround));
    m.emplace_back("asp.ground_rules", mean(counts.ground_rules));
    m.emplace_back("asp.solve_us", median_us(spans, kAspSolve, kPlain));
    m.emplace_back("asp.solver_decisions", mean(counts.decisions));
    m.emplace_back("asp.solver_conflicts", mean(counts.conflicts));
    m.emplace_back("ilp.learn_s", median(learn_s));
    m.emplace_back("ilp.coverage_checks", median(coverage));
    m.emplace_back("ilp.search_nodes", median(nodes));
    m.emplace_back("agenp.lint_ms", median_us(spans, kLint) / 1000.0);
    m.emplace_back("agenp.violations_ms", median_us(spans, kViolations) / 1000.0);
    m.emplace_back("trace.solver_layer_share", total > 0 ? solver / total : 0);
    m.emplace_back("trace.overhead_share",
                   untraced.loop_s > 0 ? (traced.loop_s - untraced.loop_s) / untraced.loop_s : 0);
    m.emplace_back("trace.replayed_requests", static_cast<double>(traced.requests));
    return m;
}

}  // namespace pb
