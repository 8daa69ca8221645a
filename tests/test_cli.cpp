#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <typeinfo>

#include "asg/asg.hpp"
#include "asp/parser.hpp"
#include "cfg/grammar.hpp"
#include "cli/commands.hpp"
#include "mutate.hpp"
#include "scenarios/cav/cav.hpp"
#include "scenarios/datashare/datashare.hpp"
#include "scenarios/fedlearn/fedlearn.hpp"
#include "scenarios/resupply/resupply.hpp"
#include "util/strings.hpp"
#include "xacml/generator.hpp"
#include "xacml/learning_bridge.hpp"

namespace agenp::cli {
namespace {

// Writes a temp file and returns its path (unique per test via counter).
std::string temp_file(const std::string& name, const std::string& content) {
    std::string path = std::string(::testing::TempDir()) + "/agenp_" + name;
    std::ofstream out(path);
    out << content;
    return path;
}

const char* kTaskText = R"task(
#grammar
request -> "do" task
task -> "patrol" { requires(2). }
task -> "strike" { requires(4). }
task -> "observe" { requires(1). }
#bias
body requires var(lvl) @2
body maxloa var(lvl)
compare lvl gt varvar
max_body 2
max_vars 2
#positive
do patrol | maxloa(3).
do strike | maxloa(5).
do observe | maxloa(1).
#negative
do strike | maxloa(3).
do patrol | maxloa(1).
)task";

TEST(TaskFile, ParsesSectionsAndExamples) {
    auto task = parse_task_file(kTaskText);
    EXPECT_EQ(task.initial.production_count(), 4u);
    EXPECT_GT(task.space.candidates.size(), 0u);
    EXPECT_EQ(task.positive.size(), 3u);
    EXPECT_EQ(task.negative.size(), 2u);
    EXPECT_EQ(cfg::detokenize(task.positive[0].string), "do patrol");
    EXPECT_EQ(task.positive[0].context.size(), 1u);
}

TEST(TaskFile, LearnsFromParsedTask) {
    auto task = parse_task_file(kTaskText);
    auto result = ilp::learn(task);
    ASSERT_TRUE(result.found) << result.failure_reason;
    EXPECT_EQ(result.hypothesis.size(), 1u);
}

TEST(TaskFile, RejectsMissingSections) {
    EXPECT_THROW(parse_task_file("#grammar\ns -> \"x\"\n"), CliError);
    EXPECT_THROW(parse_task_file("stray line\n"), CliError);
}

TEST(TaskFile, RejectsBadBiasDirectives) {
    EXPECT_THROW(parse_task_file(R"(
#grammar
s -> "x"
#bias
frobnicate everything
)"), CliError);
    EXPECT_THROW(parse_task_file(R"(
#grammar
s -> "x"
#bias
compare lvl frob
)"), CliError);
}

// Learn-task numbers parse whole or not at all, and the error names the
// directive and the word.
const char* kBiasPrefix = "#grammar\ns -> \"x\" t\nt -> \"y\" { p. }\n#bias\n";
const char* kBadNumbers[] = {"5abc", "99999999999", "2.5", "0x3"};

void expect_rejected(const std::string& text, const std::string& directive,
                     const std::string& word) {
    try {
        parse_task_file(text);
        ADD_FAILURE() << "accepted:\n" << text;
    } catch (const CliError& e) {
        std::string what = e.what();
        EXPECT_NE(what.find(directive), std::string::npos) << what;
        EXPECT_NE(what.find("'" + word + "'"), std::string::npos) << what;
    }
}

TEST(TaskFile, MaxBodyIsAStrictInteger) {
    for (std::string bad : kBadNumbers) {
        expect_rejected(std::string(kBiasPrefix) + "body p @2\nmax_body " + bad + "\n", "max_body",
                        bad);
    }
    // A directive takes exactly one number.
    EXPECT_THROW(parse_task_file(std::string(kBiasPrefix) + "body p @2\nmax_body\n"), CliError);
    EXPECT_THROW(parse_task_file(std::string(kBiasPrefix) + "body p @2\nmax_body 2 3\n"), CliError);
}

TEST(TaskFile, MinBodyIsAStrictInteger) {
    for (std::string bad : kBadNumbers) {
        expect_rejected(std::string(kBiasPrefix) + "body p @2\nmin_body " + bad + "\n", "min_body",
                        bad);
    }
}

TEST(TaskFile, MaxVarsIsAStrictInteger) {
    for (std::string bad : kBadNumbers) {
        expect_rejected(std::string(kBiasPrefix) + "body p @2\nmax_vars " + bad + "\n", "max_vars",
                        bad);
    }
}

TEST(TaskFile, MaxComparisonsIsAStrictInteger) {
    for (std::string bad : kBadNumbers) {
        expect_rejected(std::string(kBiasPrefix) + "body p @2\nmax_comparisons " + bad + "\n",
                        "max_comparisons", bad);
    }
}

TEST(TaskFile, ModeAnnotationIsAStrictInteger) {
    for (std::string bad : kBadNumbers) {
        expect_rejected(std::string(kBiasPrefix) + "body p @" + bad + "\n", "body annotation",
                        "@" + bad);
    }
}

TEST(TaskFile, TargetsAreStrictIntegers) {
    for (std::string bad : kBadNumbers) {
        expect_rejected(std::string(kBiasPrefix) + "body p @2\n#targets\n0 " + bad + "\n",
                        "#targets", bad);
    }
    // Well-formed numbers still parse.
    auto task = parse_task_file(std::string(kBiasPrefix) +
                                "body p @2\nmax_body 1\nmax_vars 3\n#targets\n0 1\n");
    EXPECT_EQ(task.space.candidates.size(), 2u);
}

const char* kHeadTaskText = R"(
#grammar
s -> "x"
#bias
no_constraints
head ok
body weather const(w)
const w sunny rainy
max_body 1
)";

TEST(TaskFile, HeadAndConstDirectives) {
    auto task = parse_task_file(kHeadTaskText);
    EXPECT_FALSE(task.space.constraints_only());
    EXPECT_EQ(task.space.candidates.size(), 2u);
}

// A task whose start production has two children and whose two `task`
// productions have one (a terminal); `bias` and `targets` are spliced in.
std::string mission_task(const std::string& bias, const std::string& targets = "") {
    return "#grammar\nrequest -> \"do\" task\ntask -> \"patrol\" { requires(2). }\n"
           "task -> \"strike\" { requires(4). }\n#bias\n" +
           bias + targets +
           "#positive\ndo patrol | maxloa(3).\ndo strike | maxloa(5).\n"
           "#negative\ndo patrol | maxloa(1).\n";
}

std::string mission_bias(const std::string& annotation) {
    return "body requires const(r) " + annotation +
           " neg\nbody maxloa const(l)\nconst l 1\nconst r 9\nmin_body 2\nmax_body 2\n";
}

TEST(TaskFile, RejectsTargetPastTheLastProduction) {
    expect_rejected(mission_task(mission_bias("@2"), "#targets\n0 999\n"), "#targets", "999");
}

TEST(TaskFile, RejectsNegativeTarget) {
    expect_rejected(mission_task(mission_bias("@2"), "#targets\n-1\n"), "#targets", "-1");
}

// A negative `@k` would let `agenp learn` write a grammar, with
// `:- not requires(9)@-2, maxloa(1).`, that `agenp membership` and
// `agenp lint` cannot read back.
TEST(TaskFile, RejectsNegativeModeAnnotation) {
    expect_rejected(mission_task(mission_bias("@-2")), "body annotation", "@-2");
}

// `@0` names no child: the ASP parser rejects it, and a mode would read it
// as an unannotated atom.
TEST(TaskFile, RejectsZeroModeAnnotation) {
    expect_rejected(mission_task(mission_bias("@0")), "body annotation", "@0");
}

// `@k` must name a child of some target production: the start production
// has two, each `task` production one.
TEST(TaskFile, RejectsModeAnnotationPastEveryTargetArity) {
    expect_rejected(mission_task(mission_bias("@5")), "body annotation", "@5");
    expect_rejected(mission_task(mission_bias("@2"), "#targets\n1 2\n"), "body annotation", "@2");
    EXPECT_NO_THROW(parse_task_file(mission_task(mission_bias("@2"), "#targets\n0 1\n")));
}

// A negative `min_body` makes the skeleton enumeration recurse without end.
TEST(TaskFile, RejectsNegativeMinBody) {
    expect_rejected(mission_task("body maxloa const(l)\nconst l 1\nmin_body -1\n"), "min_body", "-1");
}

// Past the learner's cost bound a body or comparison bound only grows the
// enumeration, which can exhaust memory before max_candidates fires.
TEST(TaskFile, RejectsMaxBodyPastTheCostBound) {
    expect_rejected(mission_task("body maxloa const(l)\nconst l 1\nmax_body 1000000\n"), "max_body",
                    "1000000");
}

TEST(TaskFile, RejectsMaxComparisonsPastTheCostBound) {
    expect_rejected(mission_task("body maxloa var(l)\ncompare l gt\nconst l 1\n"
                                 "max_comparisons 1000000\n"),
                    "max_comparisons", "1000000");
}

TEST(TaskFile, RejectsNegativeMaxVars) {
    expect_rejected(mission_task("body maxloa var(l)\nmax_vars -1\n"), "max_vars", "-1");
}

TEST(TaskFile, BodyAndComparisonBoundsStopAtTheLearnerCostBound) {
    const int bound = ilp::LearnOptions{}.max_cost;
    const std::string over = std::to_string(bound + 1);
    for (std::string directive : {"max_body", "min_body", "max_comparisons"}) {
        expect_rejected(mission_task("body ok\n" + directive + " " + over + "\n"), directive, over);
    }
    auto task = parse_task_file(mission_task("body ok\nmin_body " + std::to_string(bound) +
                                             "\nmax_body " + std::to_string(bound) +
                                             "\nmax_comparisons " + std::to_string(bound) + "\n"));
    ASSERT_EQ(task.space.candidates.size(), 1u);
    EXPECT_EQ(task.space.candidates[0].rule.body.size(), static_cast<std::size_t>(bound));
}

// A rule with six variable slots has at most six distinct variables, so a
// larger max_vars leaves the space as it is, and must not cost time
// exponential in max_vars.
TEST(TaskFile, MaxVarsPastTheSlotCountKeepsTheSpace) {
    auto task = [](const std::string& max_vars) {
        return parse_task_file(mission_task("body edge var(n) var(n)\nmax_body 3\n"
                                            "max_comparisons 0\nmax_vars " +
                                            max_vars + "\n"));
    };
    auto six = task("6");
    auto huge = task("2147483647");
    ASSERT_EQ(huge.space.candidates.size(), six.space.candidates.size());
    for (std::size_t i = 0; i < six.space.candidates.size(); ++i) {
        EXPECT_EQ(huge.space.candidates[i].to_string(), six.space.candidates[i].to_string()) << i;
    }
}

// --- learn-task mutation fuzzing --------------------------------------------

// The mutator's starting texts: this file's tasks and the number repros.
std::vector<std::string> task_corpus() {
    return {
        kTaskText,
        std::string(kBiasPrefix) + "body p @2\nmax_body 1\nmax_vars 3\n#targets\n0 1\n",
        kHeadTaskText,
        mission_task(mission_bias("@2")),
        mission_task(mission_bias("@-2")),
        mission_task(mission_bias("@5"), "#targets\n0 999 -1\n"),
        mission_task("body maxloa const(l)\nconst l 1\nmin_body -1\n"),
        mission_task("body maxloa const(l)\nconst l 1\nmax_body 1000000\n"),
        mission_task("body maxloa var(l)\ncompare l gt\nconst l 1\nmax_comparisons 1000000\n"),
        mission_task("body edge var(n) var(n)\nmax_body 3\nmax_comparisons 0\n"
                     "max_vars 2147483647\n"),
    };
}

// Fragments worth splicing into a task: sections, directives, annotation
// and number edges, mode syntax, and bytes that are not UTF-8.
const char* const kTaskFragments[] = {
    "#targets\n", "#bias\n", "#grammar\n", "#positive\n", "#negative\n", "@0", "@-1", "@",
    "-1", "0", "24", "25", "2147483647", "2147483648", "max_vars ", "max_body ", "min_body ",
    "max_comparisons ", "body ", "head ", "compare ", "const ", "no_constraints", "|", "neg",
    "var(", "const(", ")", "(", ".", ":-", "not ", "->", "\"", "{", "}", "\xff", "\n", " ",
};

const fuzz::Alphabet kTaskAlphabet{kTaskFragments, '(', ')'};

// Every mutant parses, or throws one of the errors `agenp learn` reports
// for a bad task: the CLI's own, a parse error from the ASP, ASG or CFG
// layer, or the space generator's max_candidates error. Anything else, a
// crash or a sanitizer report fails.
TEST(TaskFileFuzz, MutatedTasksParseOrThrowAReportedError) {
    const std::vector<std::string> corpus = task_corpus();
    constexpr std::uint64_t kSeeds = 16;
    constexpr std::size_t kMutantsPerSeed = 1000;
    std::size_t parsed = 0;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        std::mt19937_64 rng(seed);
        for (std::size_t i = 0; i < kMutantsPerSeed; ++i) {
            const std::string& base = corpus[rng() % corpus.size()];
            std::string text = fuzz::mutate(base, corpus, kTaskAlphabet, rng);
            try {
                parse_task_file(text);
                ++parsed;
            } catch (const CliError&) {
            } catch (const asp::ParseError&) {
            } catch (const asg::AsgError&) {
            } catch (const cfg::GrammarError&) {
            } catch (const std::exception& e) {
                bool space_cap = typeid(e) == typeid(std::runtime_error) &&
                                 std::string(e.what()).find("max_candidates") != std::string::npos;
                if (!space_cap) {
                    FAIL() << "seed " << seed << ", mutant " << i << " escaped as "
                           << typeid(e).name() << " (" << e.what() << ") for:\n"
                           << text;
                }
            }
        }
    }
    // Both sides are exercised.
    EXPECT_GT(parsed, kSeeds * kMutantsPerSeed / 100);
    EXPECT_LT(parsed, kSeeds * kMutantsPerSeed * 9 / 10);
}

// --- candidate-list digests ---------------------------------------------------

// FNV-1a over every candidate's rule, production and cost, sorted: it
// pins the candidate set; Space.ComparisonOrderDoesNotDependOnInterningHistory
// (test_ilp) pins the order.
std::uint64_t space_digest(const ilp::HypothesisSpace& space) {
    std::vector<std::string> lines;
    for (const auto& c : space.candidates) lines.push_back(c.to_string() + " " + std::to_string(c.cost));
    std::sort(lines.begin(), lines.end());
    std::string text;
    for (const auto& line : lines) text += line + "\n";
    return util::fnv1a_hash(text);
}

// The spaces of the scenarios, the XACML bridge and this file's tasks,
// pinned candidate by candidate: the enumeration may get faster, but every
// list stays.
TEST(HypothesisSpaceDigest, ScenarioBridgeAndTaskSpacesKeepTheirCandidates) {
    struct Pinned {
        const char* name;
        std::function<ilp::HypothesisSpace()> space;
        std::size_t candidates;
        std::uint64_t digest;
    };
    auto task_space = [](std::string text) {
        return [text] { return parse_task_file(text).space; };
    };
    const Pinned pinned[] = {
        {"cav", scenarios::cav::hypothesis_space, 420, 9772058194910870591ull},
        {"cav sharing", scenarios::cav::sharing_space, 375, 13720896986872181739ull},
        {"datashare share", scenarios::datashare::share_space, 522, 13809026723018190329ull},
        {"datashare service", scenarios::datashare::service_space, 98, 10122931769329404176ull},
        {"fedlearn", scenarios::fedlearn::hypothesis_space, 426, 13187142241295654985ull},
        {"resupply", scenarios::resupply::hypothesis_space, 652, 9946527050887640153ull},
        {"xacml healthcare bridge",
         [] { return xacml::make_bridge(xacml::healthcare_schema()).space; }, 310,
         1416059254811170976ull},
        {"xacml coalition bridge", [] { return xacml::make_bridge(xacml::coalition_schema()).space; },
         272, 9770979534525838818ull},
        {"kTaskText", task_space(kTaskText), 14, 7907578744202145752ull},
        {"kHeadTaskText", task_space(kHeadTaskText), 2, 1242346097272132867ull},
        {"two targets",
         task_space(std::string(kBiasPrefix) + "body p @2\nmax_body 1\nmax_vars 3\n#targets\n0 1\n"),
         2, 16140387136750538886ull},
        {"mission @2", task_space(mission_task(mission_bias("@2"))), 7, 5730271270481574354ull},
        {"edge max_vars 6",
         task_space(mission_task("body edge var(n) var(n)\nmax_body 3\nmax_comparisons 0\n"
                                 "max_vars 6\n")),
         220, 16241315630489961924ull},
    };
    for (const auto& p : pinned) {
        auto space = p.space();
        EXPECT_EQ(space.candidates.size(), p.candidates) << p.name;
        EXPECT_EQ(space_digest(space), p.digest) << p.name;
    }
}

TEST(CmdSolve, PrintsAnswerSets) {
    auto path = temp_file("solve.lp", "a :- not b. b :- not a. :- b.");
    std::ostringstream out;
    EXPECT_EQ(cmd_solve(path, 0, out), 0);
    EXPECT_NE(out.str().find("answer set 1: a"), std::string::npos);
}

TEST(CmdSolve, UnsatisfiableExitsNonzero) {
    auto path = temp_file("unsat.lp", "p. :- p.");
    std::ostringstream out;
    EXPECT_EQ(cmd_solve(path, 1, out), 1);
    EXPECT_NE(out.str().find("UNSATISFIABLE"), std::string::npos);
}

TEST(CmdMembership, AcceptsAndRejects) {
    auto grammar = temp_file("g.asg", R"(
request -> "do" task
task -> "patrol" { requires(2). :- requires(L), maxloa(M), L > M. }
task -> "strike" { requires(4). :- requires(L), maxloa(M), L > M. }
)");
    auto context = temp_file("ctx.lp", "maxloa(3).");
    std::ostringstream out;
    EXPECT_EQ(cmd_membership(grammar, "do patrol", context, out), 0);
    EXPECT_NE(out.str().find("ACCEPTED"), std::string::npos);
    std::ostringstream out2;
    EXPECT_EQ(cmd_membership(grammar, "do strike", context, out2), 1);
    EXPECT_NE(out2.str().find("REJECTED"), std::string::npos);
}

TEST(CmdGenerate, ListsLanguage) {
    auto grammar = temp_file("g2.asg", R"(
request -> "do" task
task -> "patrol" { requires(2). :- requires(L), maxloa(M), L > M. }
task -> "strike" { requires(4). :- requires(L), maxloa(M), L > M. }
)");
    auto context = temp_file("ctx2.lp", "maxloa(3).");
    std::ostringstream out;
    EXPECT_EQ(cmd_generate(grammar, context, 100, out), 0);
    EXPECT_NE(out.str().find("do patrol"), std::string::npos);
    EXPECT_EQ(out.str().find("do strike"), std::string::npos);
}

TEST(CmdLearn, LearnsAndWritesGrammar) {
    auto task = temp_file("task.agenp", kTaskText);
    std::string out_path = std::string(::testing::TempDir()) + "/agenp_learned.asg";
    std::ostringstream out;
    EXPECT_EQ(cmd_learn(task, out_path, out), 0);
    EXPECT_NE(out.str().find("hypothesis (cost"), std::string::npos);
    // The written grammar re-parses and enforces the learned policy.
    auto learned = asg::AnswerSetGrammar::parse(read_file(out_path));
    EXPECT_FALSE(asg::in_language(learned, cfg::tokenize("do strike"),
                                  asp::parse_program("maxloa(3).")));
    EXPECT_TRUE(asg::in_language(learned, cfg::tokenize("do patrol"),
                                 asp::parse_program("maxloa(3).")));
}

TEST(CmdEvaluate, PermitAndDenyWithExitCodes) {
    auto schema_path = temp_file("s.xs", R"(
schema toy
attr role subject categorical admin user
attr hour environment numeric 0 5
)");
    auto policy_path = temp_file("p.xp", R"(
policy toy deny-overrides
target any
rule d deny role=user hour<2
rule ok permit any
)");
    std::ostringstream out;
    EXPECT_EQ(cmd_evaluate(schema_path, policy_path, "role=admin hour=1", out), 0);
    EXPECT_NE(out.str().find("Permit"), std::string::npos);
    std::ostringstream out2;
    EXPECT_EQ(cmd_evaluate(schema_path, policy_path, "role=user hour=1", out2), 1);
    EXPECT_NE(out2.str().find("Deny"), std::string::npos);
}

TEST(Run, DispatchesAndReportsUsage) {
    std::ostringstream out, err;
    EXPECT_EQ(run({}, out, err), 2);
    EXPECT_NE(err.str().find("usage"), std::string::npos);
    std::ostringstream out2, err2;
    EXPECT_EQ(run({"frob"}, out2, err2), 2);
    std::ostringstream out3, err3;
    EXPECT_EQ(run({"solve"}, out3, err3), 2);  // missing file argument
}

TEST(Run, EndToEndSolve) {
    auto path = temp_file("e2e.lp", "p. q :- p.");
    std::ostringstream out, err;
    EXPECT_EQ(run({"solve", path, "--models", "1"}, out, err), 0);
    EXPECT_NE(out.str().find("p q"), std::string::npos);
}

TEST(Run, QuickstartRunsFullLoop) {
    std::ostringstream out, err;
    EXPECT_EQ(run({"quickstart"}, out, err), 0);
    EXPECT_NE(out.str().find("ASP warm-up: 8 answer sets"), std::string::npos);
    EXPECT_NE(out.str().find("PAdaP adopted GPM v1"), std::string::npos);
    EXPECT_NE(out.str().find("do patrol -> Permit"), std::string::npos);
    EXPECT_NE(out.str().find("do strike -> Deny"), std::string::npos);
    // Without --stats there is no metrics dump.
    EXPECT_EQ(out.str().find("--- metrics ---"), std::string::npos);
}

TEST(Run, StatsFlagDumpsNonzeroTelemetry) {
    std::ostringstream out, err;
    EXPECT_EQ(run({"quickstart", "--stats"}, out, err), 0);
    const auto& text = out.str();
    // The warm-up program branches, so solver decisions are nonzero.
    EXPECT_EQ(text.find("(0 decisions"), std::string::npos);
    EXPECT_NE(text.find("--- metrics ---"), std::string::npos);
    for (const char* metric : {"asp.solver.decisions", "asp.solver.propagations"}) {
        EXPECT_NE(text.find(metric), std::string::npos) << metric;
    }
    // Per-phase latency histograms are present; their counts are the
    // learner runs, PDP decisions, PReP refreshes and membership checks.
    for (const char* hist :
         {"phase_ns{phase=\"agenp.padap.adapt\"}", "phase_ns{phase=\"ilp.learn\"}",
          "phase_ns{phase=\"agenp.prep.refresh\"}", "phase_ns{phase=\"agenp.pdp.decide\"}",
          "phase_ns{phase=\"asg.membership\"}"}) {
        EXPECT_NE(text.find(hist), std::string::npos) << hist;
    }
}

TEST(Run, TraceOutWritesChromeTraceJson) {
    std::string path = std::string(::testing::TempDir()) + "/agenp_trace.json";
    std::ostringstream out, err;
    EXPECT_EQ(run({"quickstart", "--trace-out=" + path}, out, err), 0);
    EXPECT_NE(out.str().find("trace written to"), std::string::npos);
    auto json = read_file(path);
    // Structural spot-checks; full JSON validation lives in test_obs.
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("asp.solve"), std::string::npos);
    EXPECT_NE(json.find("agenp.padap.adapt"), std::string::npos);
    // The flat profile accompanies the trace on stdout.
    EXPECT_NE(out.str().find("agenp.pdp.decide"), std::string::npos);
}

TEST(Run, StatsFlagWorksOnSolveToo) {
    auto path = temp_file("stats.lp", "a :- not b. b :- not a.");
    std::ostringstream out, err;
    EXPECT_EQ(run({"solve", path, "--models", "0", "--stats"}, out, err), 0);
    EXPECT_NE(out.str().find("--- metrics ---"), std::string::npos);
    EXPECT_NE(out.str().find("phase_ns{phase=\"asp.solve\"}"), std::string::npos);
}

TEST(ReadFile, ThrowsOnMissing) {
    EXPECT_THROW(read_file("/nonexistent/definitely_missing"), CliError);
}

// --- serve-mode control lines ---

const char* kServeGrammar = R"asg(
request -> "do" task {
  :- requires(L)@2, maxloa(M), L > M.
}
task -> "patrol" { requires(2). }
task -> "strike" { requires(5). }
)asg";

TEST(CmdServe, ControlLinesReportStatsFlightAndTraces) {
    std::string grammar = temp_file("serve_ctl.asg", kServeGrammar);
    std::string context = temp_file("serve_ctl.lp", "maxloa(3).\n");
    srv::ServerOptions options;
    options.router.service.threads = 2;
    options.router.service.trace.sample_every = 1;  // capture every request's span tree
    std::string trace_path = std::string(::testing::TempDir()) + "/agenp_serve_ctl_trace.json";

    std::istringstream in("do patrol\ndo strike\n!stats\n!flight\n!trace " + trace_path +
                          "\n!bogus\n");
    std::ostringstream out;
    EXPECT_EQ(cmd_serve(grammar, context, options, in, out), 0);
    std::string text = out.str();

    // Decisions, in request order.
    EXPECT_NE(text.find("Permit"), std::string::npos);
    EXPECT_NE(text.find("Deny"), std::string::npos);

    // !stats: one-line JSON with service, cache and per-lock sections.
    auto stats_pos = text.find("SERVE_STATS_JSON {");
    ASSERT_NE(stats_pos, std::string::npos);
    std::string stats_line = text.substr(stats_pos, text.find('\n', stats_pos) - stats_pos);
    for (const char* field : {"\"submitted\":2", "\"permitted\":1", "\"denied\":1",
                              "\"cache\":", "\"locks\":", "\"srv.model\":"}) {
        EXPECT_NE(stats_line.find(field), std::string::npos) << field;
    }

    // !flight: both requests in the ring, monotone ids.
    auto flight_pos = text.find("FLIGHT_JSON [");
    ASSERT_NE(flight_pos, std::string::npos);
    std::string flight_line = text.substr(flight_pos, text.find('\n', flight_pos) - flight_pos);
    EXPECT_NE(flight_line.find("\"id\":1"), std::string::npos);
    EXPECT_NE(flight_line.find("\"id\":2"), std::string::npos);
    EXPECT_NE(flight_line.find("\"total_us\":"), std::string::npos);

    // !trace: Chrome trace JSON with queue-wait and solve spans on disk.
    EXPECT_NE(text.find("trace written to " + trace_path), std::string::npos);
    std::string trace_json = read_file(trace_path);
    EXPECT_NE(trace_json.find("srv.queue_wait"), std::string::npos);
    EXPECT_NE(trace_json.find("srv.solve"), std::string::npos);
    EXPECT_NE(trace_json.find("\"ph\":\"X\""), std::string::npos);

    // Unknown control lines get a hint instead of being sent to the PDP.
    EXPECT_NE(text.find("unknown control line: !bogus"), std::string::npos);
}

TEST(CmdServe, UsageMentionsObservabilityFlags) {
    std::ostringstream out, err;
    int code = run({"serve"}, out, err);
    EXPECT_NE(code, 0);
    for (const char* flag : {"--trace-slow-ms", "--trace-sample", "--stats-every", "--listen",
                             "--replicas", "--state-dir", "--snapshot-every", "--cache-shards"}) {
        EXPECT_NE(err.str().find(flag), std::string::npos) << flag;
    }
}

TEST(CmdServe, WarmRestartRoundTripThroughStateDir) {
    std::string grammar = temp_file("serve_state.asg", kServeGrammar);
    std::string context = temp_file("serve_state.lp", "maxloa(3).\n");
    srv::ServerOptions options;
    options.router.service.threads = 2;
    options.state_dir = std::string(::testing::TempDir()) + "/agenp_cli_state";

    // First life: cold start (nothing to restore), two decisions, and a
    // drain-time snapshot of the model and the (empty) repository.
    {
        std::istringstream in("do patrol\ndo strike\n");
        std::ostringstream out;
        EXPECT_EQ(cmd_serve(grammar, context, options, in, out), 0);
        EXPECT_NE(out.str().find("AGENP_STATE_RESTORED policies=0 model_version=0\n"),
                  std::string::npos)
            << out.str();
        EXPECT_NE(out.str().find("SNAPSHOT_JSON {\"policies\":0,"), std::string::npos) << out.str();
    }
    // Second life on the same --state-dir: the snapshot is restored, the
    // cache starts empty, and both requests are decided again, the same.
    {
        std::istringstream in("do patrol\ndo strike\n!stats\n");
        std::ostringstream out;
        EXPECT_EQ(cmd_serve(grammar, context, options, in, out), 0);
        std::string text = out.str();
        EXPECT_NE(text.find("AGENP_STATE_RESTORED policies=0 model_version=0\n"),
                  std::string::npos)
            << text;
        EXPECT_EQ(text.find("state restore warning"), std::string::npos) << text;
        EXPECT_NE(text.find("Permit\nDeny\n"), std::string::npos) << text;
        auto stats_pos = text.find("SERVE_STATS_JSON {");
        ASSERT_NE(stats_pos, std::string::npos);
        std::string stats_line = text.substr(stats_pos, text.find('\n', stats_pos) - stats_pos);
        for (const char* field :
             {"\"cache\":{\"hits\":0,\"misses\":2,", "\"store\":{", "\"restored\":true"}) {
            EXPECT_NE(stats_line.find(field), std::string::npos) << field << "\n" << stats_line;
        }
    }
    std::remove((options.state_dir + "/snapshot.agenp").c_str());
    ::rmdir(options.state_dir.c_str());
}

TEST(CmdServe, PolicyEditTakesEffectAcrossARestart) {
    std::string context = temp_file("serve_edit.lp", "maxloa(3).\n");
    srv::ServerOptions options;
    options.router.service.threads = 1;
    options.state_dir = std::string(::testing::TempDir()) + "/agenp_cli_edit";

    // First life permits patrol (requires 2, maxloa 3) and drains, which
    // writes the snapshot.
    {
        std::string grammar = temp_file("serve_edit.asg", kServeGrammar);
        std::istringstream in("do patrol\n");
        std::ostringstream out;
        EXPECT_EQ(cmd_serve(grammar, context, options, in, out), 0);
        EXPECT_NE(out.str().find("\nPermit\n"), std::string::npos) << out.str();
    }
    // The operator raises patrol above maxloa and restarts on the same
    // directory: the new policy decides, and no verdict of the old one
    // comes back.
    {
        std::string edited = kServeGrammar;
        const std::string patrol = "task -> \"patrol\" { requires(2). }";
        ASSERT_NE(edited.find(patrol), std::string::npos);
        edited.replace(edited.find(patrol), patrol.size(), "task -> \"patrol\" { requires(5). }");
        std::string grammar = temp_file("serve_edit.asg", edited);
        std::istringstream in("do patrol\n!stats\n");
        std::ostringstream out;
        EXPECT_EQ(cmd_serve(grammar, context, options, in, out), 0);
        std::string text = out.str();
        EXPECT_NE(text.find("\nDeny\n"), std::string::npos) << text;
        EXPECT_EQ(text.find("Permit"), std::string::npos) << text;
        auto stats_pos = text.find("SERVE_STATS_JSON {");
        ASSERT_NE(stats_pos, std::string::npos);
        std::string stats_line = text.substr(stats_pos, text.find('\n', stats_pos) - stats_pos);
        EXPECT_NE(stats_line.find("\"cache\":{\"hits\":0,"), std::string::npos) << stats_line;
    }
    std::remove((options.state_dir + "/snapshot.agenp").c_str());
    ::rmdir(options.state_dir.c_str());
}

TEST(CmdServe, SnapshotControlLineNeedsStateDir) {
    std::string grammar = temp_file("serve_snap.asg", kServeGrammar);
    std::string context = temp_file("serve_snap.lp", "maxloa(3).\n");
    srv::ServerOptions options;
    options.router.service.threads = 1;

    // Without --state-dir the control line explains itself.
    {
        std::istringstream in("!snapshot\n");
        std::ostringstream out;
        EXPECT_EQ(cmd_serve(grammar, context, options, in, out), 0);
        EXPECT_NE(out.str().find("snapshot unavailable: serve started without --state-dir"),
                  std::string::npos)
            << out.str();
    }
    // With one, it persists on demand and replies with the summary line,
    // which counts policies and carries no cache entries.
    options.state_dir = std::string(::testing::TempDir()) + "/agenp_cli_snap";
    {
        std::istringstream in("do patrol\n!snapshot\n");
        std::ostringstream out;
        EXPECT_EQ(cmd_serve(grammar, context, options, in, out), 0);
        std::string text = out.str();
        auto snapshot_pos = text.find("SNAPSHOT_JSON {\"policies\":0,");
        ASSERT_NE(snapshot_pos, std::string::npos) << text;
        std::string snapshot_line =
            text.substr(snapshot_pos, text.find('\n', snapshot_pos) - snapshot_pos);
        EXPECT_EQ(snapshot_line.find("entries"), std::string::npos) << snapshot_line;
    }
    std::remove((options.state_dir + "/snapshot.agenp").c_str());
    ::rmdir(options.state_dir.c_str());
}

TEST(CmdServe, StdinModeRoutesAcrossReplicasAndSpeaksJson) {
    std::string grammar = temp_file("serve_repl.asg", kServeGrammar);
    std::string context = temp_file("serve_repl.lp", "maxloa(3).\n");
    srv::ServerOptions options;
    options.router.service.threads = 2;
    options.router.replicas = 2;  // stdin front door over a 2-replica router

    // Plain token lines and wire-protocol JSON lines share one dispatch
    // path; both kinds work interleaved on stdin.
    std::istringstream in("do patrol\n{\"id\":7,\"decide\":\"do strike\"}\n!stats\n");
    std::ostringstream out;
    EXPECT_EQ(cmd_serve(grammar, context, options, in, out), 0);
    std::string text = out.str();

    EXPECT_NE(text.find("Permit"), std::string::npos);
    // The JSON line gets a JSON reply with the echoed id.
    EXPECT_NE(text.find("\"id\":7,\"outcome\":\"deny\""), std::string::npos);

    auto stats_pos = text.find("SERVE_STATS_JSON {");
    ASSERT_NE(stats_pos, std::string::npos);
    std::string stats_line = text.substr(stats_pos, text.find('\n', stats_pos) - stats_pos);
    for (const char* field :
         {"\"submitted\":2", "\"replicas\":[", "\"model_version\":0", "\"versions_agree\":true",
          "\"routed\":{\"affinity\":2,\"fallback\":0}"}) {
        EXPECT_NE(stats_line.find(field), std::string::npos) << field << "\n" << stats_line;
    }
}

TEST(CmdServe, BadPolicyExitsTwoBeforeListening) {
    std::string grammar = temp_file("serve_bad.asg", "request -> \"do\" missing_nonterminal\n");
    std::ostringstream out, err;
    EXPECT_EQ(run({"serve", grammar, "--listen", "0"}, out, err), 2);
    EXPECT_EQ(out.str().find("AGENP_LISTENING"), std::string::npos) << out.str();
    EXPECT_NE(err.str().find("error: "), std::string::npos);
}

TEST(Run, PortFlagsRejectValuesAbove65535) {
    // The grammar path does not exist: a port that slipped through the
    // check would fail later with "cannot read file" instead.
    const std::pair<std::vector<std::string>, std::string> cases[] = {
        {{"serve", "/nonexistent/p.asg", "--listen", "70000"}, "--listen"},
        {{"serve", "/nonexistent/p.asg", "--metrics-listen", "65536"}, "--metrics-listen"},
        {{"loadgen", "--connect", "127.0.0.1:70000"}, "--connect"},
    };
    for (const auto& [args, flag] : cases) {
        std::ostringstream out, err;
        EXPECT_EQ(run(args, out, err), 2) << flag;
        EXPECT_NE(err.str().find(flag + " expects a port in 0..65535"), std::string::npos)
            << err.str();
        EXPECT_EQ(out.str().find("AGENP_LISTENING"), std::string::npos);
    }
    // A port is the whole value, as for every numeric flag.
    std::ostringstream out, err;
    EXPECT_EQ(run({"serve", "/nonexistent/p.asg", "--listen", "80abc"}, out, err), 2);
    EXPECT_NE(err.str().find("--listen expects a port in 0..65535, got 80abc"), std::string::npos)
        << err.str();
}

TEST(Run, NumericFlagsRejectTrailingTextSignsAndOverflow) {
    // Each value once read as something else: "5abc" as 5 threads, "-1"
    // as an allocation failure, and 2^44 MiB as 0 bytes (the shift
    // wrapped, so the audit log rotated after every line). The grammar
    // path does not exist, so a value that slipped through would fail
    // later with "cannot read file" instead.
    const std::pair<std::vector<std::string>, std::string> cases[] = {
        {{"serve", "/nonexistent/p.asg", "--threads", "5abc"}, "--threads"},
        {{"serve", "/nonexistent/p.asg", "--threads", "-1"}, "--threads"},
        {{"serve", "/nonexistent/p.asg", "--replicas", "-1"}, "--replicas"},
        {{"serve", "/nonexistent/p.asg", "--cache-mb", "99999999999999999999"}, "--cache-mb"},
        {{"serve", "/nonexistent/p.asg", "--trace-slow-ms", "18446744073709552"},
         "--trace-slow-ms"},
        {{"serve", "/nonexistent/p.asg", "--trace-sample", "+3"}, "--trace-sample"},
        {{"serve", "/nonexistent/p.asg", "--prof-hz", "99 "}, "--prof-hz"},
        {{"loadgen", "--clients", "2x"}, "--clients"},
        {{"solve", "/nonexistent/p.lp", "--models", "0x10"}, "--models"},
        {{"generate", "/nonexistent/p.asg", "--max", "1.5"}, "--max"},
    };
    for (const auto& [args, flag] : cases) {
        std::ostringstream out, err;
        EXPECT_EQ(run(args, out, err), 2) << flag;
        EXPECT_NE(err.str().find("error: " + flag + " expects an integer in 0.."),
                  std::string::npos)
            << err.str();
        EXPECT_EQ(out.str().find("AGENP_LISTENING"), std::string::npos);
    }
    // The bound is the largest value whose MiB still fit the byte count.
    std::ostringstream out, err;
    EXPECT_EQ(run({"serve", "/nonexistent/p.asg", "--audit-max-mb", "17592186044416"}, out, err),
              2);
    EXPECT_NE(err.str().find("--audit-max-mb expects an integer in 0..17592186044415, got "
                             "17592186044416"),
              std::string::npos)
        << err.str();
    std::ostringstream out2, err2;
    EXPECT_EQ(run({"serve", "/nonexistent/p.asg", "--audit-max-mb", "17592186044415"}, out2, err2),
              2);
    EXPECT_NE(err2.str().find("cannot read file"), std::string::npos) << err2.str();
}

TEST(ServiceFlags, ParseStraightIntoServiceOptions) {
    // Absent flags keep the ServiceOptions defaults.
    std::vector<std::string> none;
    srv::ServiceOptions defaults;
    take_service_flags(none, defaults);
    EXPECT_EQ(defaults.threads, srv::ServiceOptions{}.threads);
    EXPECT_EQ(defaults.cache.capacity_bytes, srv::CacheOptions{}.capacity_bytes);
    EXPECT_TRUE(defaults.use_cache);
    EXPECT_FALSE(defaults.use_memo);

    // `--cache-mb 0` is the minimal cache, not the 64 MiB default; a memo
    // budget turns the memo on.
    std::vector<std::string> args = {"--threads", "3", "--cache-mb", "0", "--cache-shards", "4",
                                     "--memo-mb", "8", "rest"};
    srv::ServiceOptions options;
    take_service_flags(args, options);
    EXPECT_EQ(options.threads, 3U);
    EXPECT_EQ(options.cache.capacity_bytes, 0U);
    EXPECT_TRUE(options.use_cache);
    EXPECT_EQ(options.cache.shards, 4U);
    EXPECT_TRUE(options.use_memo);
    EXPECT_EQ(options.memo.capacity_bytes, std::size_t{8} << 20);
    EXPECT_EQ(args, std::vector<std::string>{"rest"});

    std::ostringstream out, err;
    EXPECT_EQ(run({"loadgen", "--clients", "2", "--requests", "10", "--cache-mb", "0"}, out, err), 0)
        << err.str();
    EXPECT_NE(out.str().find("cache on"), std::string::npos);
}

TEST(CmdLoadgen, UsageAndConnectValidation) {
    std::ostringstream out, err;
    int code = run({"loadgen", "--connect"}, out, err);
    EXPECT_NE(code, 0);
    EXPECT_NE(err.str().find("--connect"), std::string::npos);
    // HOST:PORT shape is validated before any socket work.
    for (const char* bad : {"localhost", ":9000", "localhost:"}) {
        std::ostringstream out2, err2;
        EXPECT_NE(run({"loadgen", "--connect", bad}, out2, err2), 0) << bad;
        EXPECT_NE(err2.str().find("HOST:PORT"), std::string::npos) << bad;
    }
}

TEST(CmdLoadgen, CacheShardsFlagParses) {
    std::ostringstream out, err;
    EXPECT_EQ(run({"loadgen", "--clients", "2", "--requests", "10", "--cache-shards", "4"}, out,
                  err),
              0)
        << err.str();
    EXPECT_NE(out.str().find("LOADGEN_JSON {"), std::string::npos);
}

TEST(CmdLoadgen, MemoFlagsParse) {
    // The memo is off unless --memo-mb gives it a budget; the report line
    // says which mode ran. --no-memo is gone.
    std::ostringstream out, err;
    EXPECT_EQ(run({"loadgen", "--clients", "2", "--requests", "10"}, out, err), 0) << err.str();
    EXPECT_NE(out.str().find("memo off"), std::string::npos);
    std::ostringstream out3, err3;
    EXPECT_NE(run({"loadgen", "--clients", "2", "--requests", "10", "--no-memo"}, out3, err3), 0);
    std::ostringstream out2, err2;
    EXPECT_EQ(run({"loadgen", "--clients", "2", "--requests", "10", "--memo-mb", "8"}, out2,
                  err2),
              0)
        << err2.str();
    EXPECT_NE(out2.str().find("memo on"), std::string::npos);
}

TEST(CmdServe, UsageMentionsMemoFlags) {
    std::ostringstream out, err;
    EXPECT_NE(run({"serve"}, out, err), 0);
    EXPECT_EQ(err.str().find("--no-memo"), std::string::npos);
    EXPECT_NE(err.str().find("--memo-mb"), std::string::npos);
    // The loadgen usage line carries it too.
    std::ostringstream out2, err2;
    EXPECT_NE(run({"loadgen", "--bogus-flag"}, out2, err2), 0);
    EXPECT_EQ(err2.str().find("--no-memo"), std::string::npos);
    EXPECT_NE(err2.str().find("--memo-mb"), std::string::npos);
}

TEST(CmdLoadgen, InProcessReportCarriesDroppedCount) {
    LoadgenCliOptions options;
    options.service.threads = 2;
    options.load.clients = 2;
    options.load.requests_per_client = 20;
    std::ostringstream out;
    EXPECT_EQ(cmd_loadgen(options, out), 0);
    EXPECT_NE(out.str().find("0 dropped"), std::string::npos);
    EXPECT_NE(out.str().find("LOADGEN_JSON {"), std::string::npos);
    EXPECT_NE(out.str().find("\"dropped\":0"), std::string::npos);
}

// --- lint ------------------------------------------------------------------

const char* kDefectiveProgram = R"(
q(1).
t(1, 2).
t(1).
r(Y) :- q(Y), not s(Z).
:- q(1).
u :- not u.
)";

TEST(CmdLint, FlagsSeededDefectCorpusAndExitsNonzero) {
    auto path = temp_file("bad.lp", kDefectiveProgram);
    std::ostringstream out, err;
    int code = run({"lint", path}, out, err);
    EXPECT_EQ(code, 1);
    for (const char* needle :
         {"ASP001", "ASP002", "ASP004", "ASP005", "ASP006", "unsafe variable Z",
          "different arities", "negation cycle through {u}"}) {
        EXPECT_NE(out.str().find(needle), std::string::npos) << needle;
    }
}

TEST(CmdLint, JsonOutputIsMachineReadable) {
    auto path = temp_file("bad_json.lp", kDefectiveProgram);
    std::ostringstream out, err;
    int code = run({"lint", path, "--json"}, out, err);
    EXPECT_EQ(code, 1);
    const std::string& text = out.str();
    EXPECT_EQ(text.rfind("{\"errors\":3", 0), 0u) << text;
    EXPECT_NE(text.find("\"code\":\"ASP001\""), std::string::npos);
    EXPECT_NE(text.find("\"severity\":\"error\""), std::string::npos);
    EXPECT_NE(text.find("\"rule\":4"), std::string::npos);
}

TEST(CmdLint, GrammarWithContextPassesCleanStrictPromotesWarnings) {
    auto grammar = temp_file("loa.asg", R"(
request -> "do" task {
    :- requires(L)@2, maxloa(M), L > M.
}
task -> "patrol" { requires(2). }
)");
    auto context = temp_file("loa_ctx.lp", "maxloa(3).\n");

    std::ostringstream clean_out, err;
    EXPECT_EQ(run({"lint", grammar, "--context", context}, clean_out, err), 0);
    EXPECT_NE(clean_out.str().find("0 error(s), 0 warning(s)"), std::string::npos);

    // Without the context, maxloa is an undefined-predicate warning: still
    // exit 0 by default, nonzero under --strict.
    std::ostringstream warn_out;
    EXPECT_EQ(run({"lint", grammar}, warn_out, err), 0);
    EXPECT_NE(warn_out.str().find("ASP002"), std::string::npos);
    std::ostringstream strict_out;
    EXPECT_EQ(run({"lint", grammar, "--strict"}, strict_out, err), 1);
}

TEST(CmdLint, FlagsGrammarShapeDefects) {
    auto grammar = temp_file("shape.asg", R"(
s -> "go" loop
loop -> "again" loop
orphan -> "x"
)");
    std::ostringstream out, err;
    int code = run({"lint", grammar}, out, err);
    EXPECT_EQ(code, 1);  // the empty start language is an error
    for (const char* needle : {"ASG001", "ASG002", "ASG003", "orphan"}) {
        EXPECT_NE(out.str().find(needle), std::string::npos) << needle;
    }
}

TEST(CmdLint, UsageAndMissingFileAreExitTwo) {
    std::ostringstream out, err;
    EXPECT_EQ(run({"lint"}, out, err), 2);
    EXPECT_NE(err.str().find("usage: agenp lint"), std::string::npos);
    EXPECT_EQ(run({"lint", "/nonexistent/x.lp"}, out, err), 2);
}

// The shipped corpus under examples/policies/ must stay error-free: the CI
// lint gate runs the same check over the tree.
TEST(CmdLint, ShippedExamplePoliciesLintWithoutErrors) {
    std::string dir = std::string(AGENP_SOURCE_DIR) + "/examples/policies";
    std::vector<std::string> checked;
    for (const char* name :
         {"quickstart.asg", "serve_demo.asg", "anbn.asg", "transitive_closure.lp", "choice.lp"}) {
        std::string path = dir + "/" + name;
        std::string file(name);
        std::vector<std::string> args = {"lint", path};
        if (file.ends_with(".asg")) {
            std::string ctx = dir + "/" + file.substr(0, file.size() - 4) + "_ctx.lp";
            if (std::ifstream(ctx).good()) {
                args.push_back("--context");
                args.push_back(ctx);
            }
        }
        std::ostringstream out, err;
        EXPECT_EQ(run(args, out, err), 0) << path << "\n" << out.str() << err.str();
        checked.push_back(path);
    }
    EXPECT_EQ(checked.size(), 5u);
}

}  // namespace
}  // namespace agenp::cli
