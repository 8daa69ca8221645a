// Experiment E7 (Sections III.B, IV.A): performance of the symbolic
// machinery — the paper's "Performance Optimization" research direction
// asks whether GPM adaptation and learning are fast enough for real-time
// autonomous parties. google-benchmark microbenches over:
//   - grounding (facts sweep),
//   - answer-set solving (choice-space sweep),
//   - ASG membership (string-length sweep),
//   - hypothesis-space generation and end-to-end learning (example sweep),
//   - the served verdict and the Earley parse on perfbench's model.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "analysis/lint.hpp"
#include "asg/instantiate.hpp"
#include "asg/membership.hpp"
#include "asp/grounder.hpp"
#include "asp/parser.hpp"
#include "asp/solver.hpp"
#include "obs/lockprof.hpp"
#include "obs/metrics.hpp"
#include "scenarios/cav/cav.hpp"
#include "xacml/evaluator.hpp"
#include "xacml/learning_bridge.hpp"

using namespace agenp;

namespace {

// --- grounding ------------------------------------------------------------

void BM_GroundTransitiveClosure(benchmark::State& state) {
    auto n = state.range(0);
    std::string text;
    for (std::int64_t i = 0; i + 1 < n; ++i) {
        text += "e(" + std::to_string(i) + "," + std::to_string(i + 1) + ").\n";
    }
    text += "r(X,Y) :- e(X,Y).\nr(X,Z) :- r(X,Y), e(Y,Z).\n";
    auto program = asp::parse_program(text);
    for (auto _ : state) {
        auto gp = asp::ground(program);
        benchmark::DoNotOptimize(gp.rules().size());
    }
    state.SetComplexityN(n);
}
BENCHMARK(BM_GroundTransitiveClosure)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Complexity();

// --- solving ---------------------------------------------------------------

void BM_SolveEvenLoops(benchmark::State& state) {
    auto k = state.range(0);
    std::string text;
    for (std::int64_t i = 0; i < k; ++i) {
        text += "p" + std::to_string(i) + " :- not q" + std::to_string(i) + ".\n";
        text += "q" + std::to_string(i) + " :- not p" + std::to_string(i) + ".\n";
        // Constraint forcing each loop to the p side: unique answer set.
        text += ":- q" + std::to_string(i) + ".\n";
    }
    auto gp = asp::ground(asp::parse_program(text));
    for (auto _ : state) {
        auto result = asp::solve(gp, {.max_models = 1});
        benchmark::DoNotOptimize(result.models.size());
    }
    state.SetComplexityN(k);
}
BENCHMARK(BM_SolveEvenLoops)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Complexity();

void BM_SolveEnumerateAll(benchmark::State& state) {
    auto k = state.range(0);  // 2^k answer sets
    std::string text;
    for (std::int64_t i = 0; i < k; ++i) {
        text += "p" + std::to_string(i) + " :- not q" + std::to_string(i) + ".\n";
        text += "q" + std::to_string(i) + " :- not p" + std::to_string(i) + ".\n";
    }
    auto gp = asp::ground(asp::parse_program(text));
    for (auto _ : state) {
        auto result = asp::solve(gp, {.max_models = 0});
        benchmark::DoNotOptimize(result.models.size());
    }
}
BENCHMARK(BM_SolveEnumerateAll)->Arg(4)->Arg(6)->Arg(8);

// --- ASG membership ---------------------------------------------------------

void BM_AsgMembershipAnBn(benchmark::State& state) {
    auto n = state.range(0);
    auto g = asg::AnswerSetGrammar::parse(R"(
        s -> as bs { :- size(N)@1, size(M)@2, N != M. }
        as -> "a" as { size(N) :- size(M)@2, N = M + 1. }
        as -> epsilon { size(0). }
        bs -> "b" bs { size(N) :- size(M)@2, N = M + 1. }
        bs -> epsilon { size(0). }
    )");
    cfg::TokenString s;
    for (std::int64_t i = 0; i < n; ++i) s.emplace_back("a");
    for (std::int64_t i = 0; i < n; ++i) s.emplace_back("b");
    for (auto _ : state) {
        benchmark::DoNotOptimize(asg::in_language(g, s));
    }
    state.SetComplexityN(n);
}
BENCHMARK(BM_AsgMembershipAnBn)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Complexity();

void BM_AsgMembershipCav(benchmark::State& state) {
    auto model = scenarios::cav::reference_model();
    util::Rng rng(5);
    auto x = scenarios::cav::sample_instance(rng);
    auto tokens = scenarios::cav::request_tokens(x);
    auto context = scenarios::cav::context_program(x.env);
    for (auto _ : state) {
        benchmark::DoNotOptimize(asg::in_language(model, tokens, context));
    }
}
BENCHMARK(BM_AsgMembershipCav);

// The same check as the PDP makes it, under asg::relevant_context. The cav
// model reads every context predicate, so this times what the slice costs
// where it drops nothing (`dropped_rules` reports 0).
void BM_AsgMembershipCavRelevantContext(benchmark::State& state) {
    auto model = scenarios::cav::reference_model();
    util::Rng rng(5);
    auto x = scenarios::cav::sample_instance(rng);
    auto tokens = scenarios::cav::request_tokens(x);
    auto context = scenarios::cav::context_program(x.env);
    for (auto _ : state) {
        benchmark::DoNotOptimize(asg::in_language(model, tokens, asg::relevant_context(model, context)));
    }
    state.counters["dropped_rules"] =
        static_cast<double>(context.size() - asg::relevant_context(model, context).size());
}
BENCHMARK(BM_AsgMembershipCavRelevantContext);

// --- hypothesis space + learning --------------------------------------------

void BM_HypothesisSpaceCav(benchmark::State& state) {
    for (auto _ : state) {
        auto space = scenarios::cav::hypothesis_space();
        benchmark::DoNotOptimize(space.candidates.size());
    }
}
BENCHMARK(BM_HypothesisSpaceCav);

// Learning time vs hypothesis-space size: the space is scaled by widening
// the constant pools and the body budget.
void BM_LearnVsSpaceSize(benchmark::State& state) {
    int level = static_cast<int>(state.range(0));  // 1..3
    auto initial = asg::AnswerSetGrammar::parse(R"(
        request -> "do" task
        task -> "patrol" { requires(2). }
        task -> "strike" { requires(4). }
        task -> "observe" { requires(1). }
    )");
    ilp::ModeBias bias;
    bias.body.push_back(ilp::ModeAtom("requires", {ilp::ArgSpec::var("lvl")}, 2));
    bias.body.push_back(ilp::ModeAtom("maxloa", {ilp::ArgSpec::var("lvl")}));
    bias.comparisons.push_back(ilp::ComparisonMode(
        "lvl", {asp::Comparison::Op::Gt, asp::Comparison::Op::Lt},
        /*var_vs_const=*/level >= 2, /*var_vs_var=*/true));
    for (int v = 0; v <= 3 * level; ++v) bias.add_constant("lvl", asp::Term::integer(v));
    bias.max_body_atoms = level >= 3 ? 3 : 2;
    bias.max_vars = 2;
    ilp::LearningTask task;
    task.initial = initial;
    task.space = ilp::generate_space(bias, {0});
    auto ctx = [](int m) { return asp::parse_program("maxloa(" + std::to_string(m) + ")."); };
    task.positive.emplace_back(cfg::tokenize("do patrol"), ctx(3));
    task.positive.emplace_back(cfg::tokenize("do strike"), ctx(5));
    task.positive.emplace_back(cfg::tokenize("do observe"), ctx(1));
    task.negative.emplace_back(cfg::tokenize("do strike"), ctx(3));
    task.negative.emplace_back(cfg::tokenize("do patrol"), ctx(1));

    for (auto _ : state) {
        auto result = ilp::learn(task);
        benchmark::DoNotOptimize(result.found);
    }
    state.counters["space"] = static_cast<double>(task.space.candidates.size());
}
BENCHMARK(BM_LearnVsSpaceSize)->Arg(1)->Arg(2)->Arg(3);

void BM_LearnCavPolicy(benchmark::State& state) {
    auto n = static_cast<std::size_t>(state.range(0));
    util::Rng rng(6);
    auto instances = scenarios::cav::sample_instances(n, rng);
    ilp::LearningTask task;
    task.initial = scenarios::cav::initial_asg();
    task.space = scenarios::cav::hypothesis_space();
    for (const auto& x : instances) {
        auto ex = scenarios::cav::to_symbolic(x);
        auto& bucket = ex.accepted ? task.positive : task.negative;
        bucket.emplace_back(ex.request, ex.context);
    }
    for (auto _ : state) {
        auto result = ilp::learn(task);
        benchmark::DoNotOptimize(result.found);
    }
    state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_LearnCavPolicy)->Arg(10)->Arg(20)->Arg(40)->Arg(80)->Complexity();

// The learn behind perfbench's drift_adapt, and the requests it decides:
// the XACML bridge over an 8x6x4x6x24 schema (hour is numeric, so most
// candidates carry a variable and a comparison), 24 background facts that
// no candidate reads, and 400 sampled requests labelled by a
// default-permit policy with three deny rules.
struct XacmlBridgeFixture {
    xacml::Schema schema;
    asp::Program background;
    ilp::LearningTask task;
    std::vector<xacml::Request> requests;

    XacmlBridgeFixture() {
        using xacml::AttributeDef;
        using xacml::Category;
        schema.attributes.push_back(AttributeDef::categorical(
            "role", Category::Subject,
            {"doctor", "nurse", "admin", "guest", "intern", "surgeon", "clerk", "auditor"}));
        schema.attributes.push_back(AttributeDef::categorical(
            "dept", Category::Subject, {"cardio", "radio", "er", "icu", "peds", "onco"}));
        schema.attributes.push_back(AttributeDef::categorical(
            "action", Category::Action, {"read", "write", "delete", "share"}));
        schema.attributes.push_back(
            AttributeDef::categorical("resource", Category::Resource,
                                      {"record", "report", "image", "lab", "billing", "schedule"}));
        schema.attributes.push_back(AttributeDef::numeric_range("hour", Category::Environment, 0, 23));
        const auto& roles = schema.attributes[0].values;
        const auto& depts = schema.attributes[1].values;
        util::Rng rng(7);
        std::string text;
        for (const auto& r : roles) {
            text += "seniority(" + r + "," + std::to_string(rng.uniform(1, 9)) + ").\n";
        }
        for (const auto& d : depts) {
            text += "floor(" + d + "," + std::to_string(rng.uniform(0, 7)) + ").\n";
        }
        for (int i = 0; i < 10; ++i) {
            text += "oncall(" + rng.choice(roles) + "," + rng.choice(depts) + ").\n";
        }
        background = asp::parse_program(text);
        xacml::BridgeOptions options;
        options.background = background;
        auto bridge = xacml::make_bridge(schema, options);
        auto policy = xacml::default_permit_family(
            schema, {.deny_rules = 3, .matches_per_rule = 2, .seed = 11});
        requests = xacml::sample_requests(schema, 400, rng);
        task = xacml::make_task(bridge, xacml::evaluate_batch(policy, requests));
    }
};

void BM_LearnXacmlBridge(benchmark::State& state) {
    XacmlBridgeFixture fixture;
    ilp::LearnResult result;
    for (auto _ : state) {
        result = ilp::learn(fixture.task);
        benchmark::DoNotOptimize(result.found);
    }
    if (!result.found) state.SkipWithError(result.failure_reason.c_str());
    state.counters["candidates"] = static_cast<double>(result.stats.candidates);
    state.counters["coverage_checks"] = static_cast<double>(result.stats.coverage_checks);
}
BENCHMARK(BM_LearnXacmlBridge)->Unit(benchmark::kMillisecond);

// A served miss on the model perfbench serves: the learned model plus the
// root constraint `:- role(R)@1, suspended(R).`, under the background and
// two suspended roles. One iteration decides the 400 requests with
// asg::accepts. The counters give rules and ground rules per parse tree
// for G(C)[PT] as written (literal), under the relevant context (sliced)
// and as accepts grounds it (served).
void BM_AsgAcceptsXacmlBridge(benchmark::State& state) {
    XacmlBridgeFixture fixture;
    auto learned = ilp::learn(fixture.task);
    if (!learned.found) {
        state.SkipWithError(learned.failure_reason.c_str());
        return;
    }
    auto model = fixture.task.initial.with_rules(learned.hypothesis)
                     .with_rules({{asp::parse_rule(":- role(R)@1, suspended(R)."), 0}});
    asp::Program context = fixture.background;
    context.append(asp::parse_program("suspended(nurse). suspended(intern)."));
    std::vector<cfg::TokenString> requests;
    for (const auto& r : fixture.requests) requests.push_back(xacml::request_tokens(fixture.schema, r));

    double trees = 0, literal = 0, sliced = 0, served = 0;
    double literal_ground = 0, sliced_ground = 0, served_ground = 0;
    auto count = [](const asp::Program& p, double& rules, double& ground) {
        rules += static_cast<double>(p.size());
        ground += static_cast<double>(asp::ground(p).rules().size());
    };
    asp::Program slice = asg::relevant_context(model, context);
    for (const auto& tokens : requests) {
        if (asg::accepts(model, tokens, context) != asg::in_language(model, tokens, context)) {
            state.SkipWithError("asg::accepts disagrees with asg::in_language");
            return;
        }
        for (const auto& tree : cfg::parse_trees(model.grammar(), tokens)) {
            ++trees;
            count(asg::instantiate(model, tree, context), literal, literal_ground);
            count(asg::instantiate(model, tree, slice), sliced, sliced_ground);
            count(asg::instantiate_relevant(model, tree, slice), served, served_ground);
        }
    }
    for (auto _ : state) {
        for (const auto& tokens : requests) benchmark::DoNotOptimize(asg::accepts(model, tokens, context));
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(requests.size()));
    state.counters["rules_literal"] = literal / trees;
    state.counters["rules_sliced"] = sliced / trees;
    state.counters["rules_served"] = served / trees;
    state.counters["ground_literal"] = literal_ground / trees;
    state.counters["ground_sliced"] = sliced_ground / trees;
    state.counters["ground_served"] = served_ground / trees;
}
BENCHMARK(BM_AsgAcceptsXacmlBridge)->Unit(benchmark::kMillisecond);

// The Earley parse alone (chart and tree extraction) of the same 400
// requests over the bridge grammar.
void BM_EarleyXacmlBridge(benchmark::State& state) {
    XacmlBridgeFixture fixture;
    const auto& grammar = fixture.task.initial.grammar();
    std::vector<cfg::TokenString> requests;
    for (const auto& r : fixture.requests) requests.push_back(xacml::request_tokens(fixture.schema, r));
    std::size_t trees = 0;
    for (auto _ : state) {
        trees = 0;
        for (const auto& tokens : requests) trees += cfg::parse_trees(grammar, tokens).size();
        benchmark::DoNotOptimize(trees);
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(requests.size()));
    state.counters["trees_per_request"] = static_cast<double>(trees) / static_cast<double>(requests.size());
}
BENCHMARK(BM_EarleyXacmlBridge)->Unit(benchmark::kMicrosecond);

// --- static analysis (agenp lint) -------------------------------------------

// Lint cost vs program size: the fact sweep scales the def/use table and
// the grounding estimator's universe.
void BM_LintProgram(benchmark::State& state) {
    auto n = state.range(0);
    std::string text;
    for (std::int64_t i = 0; i + 1 < n; ++i) {
        text += "e(" + std::to_string(i) + "," + std::to_string(i + 1) + ").\n";
    }
    text += "r(X,Y) :- e(X,Y).\nr(X,Z) :- r(X,Y), e(Y,Z).\nreach :- r(X,Y).\n:- not reach.\n";
    auto program = asp::parse_program(text);
    for (auto _ : state) {
        auto sink = analysis::lint_program(program);
        benchmark::DoNotOptimize(sink.size());
    }
    state.SetComplexityN(n);
}
BENCHMARK(BM_LintProgram)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Complexity();

// Whole-grammar lint of the CAV reference model: namespace resolution,
// per-production rule passes, and grammar-shape analysis. This is the
// per-hypothesis cost PAdaP pays when the static-lint gate is on.
void BM_LintAsg(benchmark::State& state) {
    auto model = scenarios::cav::reference_model();
    for (auto _ : state) {
        auto sink = analysis::lint_asg(model);
        benchmark::DoNotOptimize(sink.size());
    }
}
BENCHMARK(BM_LintAsg);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): after the benchmark run, emit a
// single machine-readable line with the wall time and the telemetry counters
// accumulated across every iteration (grep for BENCH_PERF_JSON).
int main(int argc, char** argv) {
    // AGENP_METRICS=off measures the telemetry overhead (compare against a
    // default run; the counters in the JSON line read zero when disabled).
    // Lock profiling is switched off together with metrics so the off run
    // is a true telemetry-free baseline.
    if (const char* env = std::getenv("AGENP_METRICS"); env && std::string_view(env) == "off") {
        obs::set_metrics_enabled(false);
        obs::set_lock_profiling_enabled(false);
    }
    auto start_ns = obs::monotonic_ns();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    double wall_s = static_cast<double>(obs::monotonic_ns() - start_ns) / 1e9;
    std::printf("BENCH_PERF_JSON: {\"wall_s\":%.3f,\"metrics\":%s}\n", wall_s,
                obs::metrics().render_json().c_str());
    // One-shot lint of the CAV reference model: the latency a single
    // PAdaP static-lint gate adds, plus the finding counts (grep for
    // BENCH_LINT_JSON).
    {
        auto model = agenp::scenarios::cav::reference_model();
        auto lint_start_ns = agenp::obs::monotonic_ns();
        auto sink = agenp::analysis::lint_asg(model);
        double lint_us = static_cast<double>(agenp::obs::monotonic_ns() - lint_start_ns) / 1e3;
        std::printf(
            "BENCH_LINT_JSON: {\"model\":\"cav_reference\",\"lint_us\":%.1f,"
            "\"diagnostics\":%zu,\"errors\":%zu,\"warnings\":%zu}\n",
            lint_us, sink.size(), sink.count(agenp::analysis::Severity::Error),
            sink.count(agenp::analysis::Severity::Warning));
    }
    return 0;
}
