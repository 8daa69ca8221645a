#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "asp/parser.hpp"
#include "ilp/classifier.hpp"
#include "ilp/guidance.hpp"
#include "ilp/learner.hpp"
#include "random_asg.hpp"
#include "util/rng.hpp"

namespace agenp::ilp {
namespace {

using cfg::tokenize;

// ---------------------------------------------------------------------------
// Hypothesis-space generation
// ---------------------------------------------------------------------------

TEST(Space, GeneratesConstraintsFromBodyModes) {
    ModeBias bias;
    bias.body.push_back(ModeAtom("p", {ArgSpec::var("t")}, 1));
    bias.max_body_atoms = 1;
    bias.max_vars = 1;
    auto space = generate_space(bias, {0});
    ASSERT_EQ(space.candidates.size(), 1u);
    EXPECT_EQ(space.candidates[0].rule.to_string(), ":- p(V1)@1.");
    EXPECT_TRUE(space.constraints_only());
}

TEST(Space, ReplicatesOverTargetProductions) {
    ModeBias bias;
    bias.body.push_back(ModeAtom("p", {}));
    bias.max_body_atoms = 1;
    auto space = generate_space(bias, {0, 2, 5});
    ASSERT_EQ(space.candidates.size(), 3u);
    std::set<int> prods;
    for (const auto& c : space.candidates) prods.insert(c.production);
    EXPECT_EQ(prods, (std::set<int>{0, 2, 5}));
}

TEST(Space, ConstantPoolsExpand) {
    ModeBias bias;
    bias.body.push_back(ModeAtom("weather", {ArgSpec::constant("w")}));
    bias.add_symbol_constants("w", {"sunny", "rainy", "fog"});
    bias.max_body_atoms = 1;
    auto space = generate_space(bias, {0});
    EXPECT_EQ(space.candidates.size(), 3u);
}

TEST(Space, ComparisonsAgainstConstants) {
    ModeBias bias;
    bias.body.push_back(ModeAtom("loa", {ArgSpec::var("lvl")}));
    bias.comparisons.push_back(ComparisonMode("lvl", {asp::Comparison::Op::Lt}));
    bias.add_int_constants("lvl", {2, 3});
    bias.max_body_atoms = 1;
    bias.max_vars = 1;
    bias.max_comparisons = 1;
    auto space = generate_space(bias, {0});
    // Bare ":- loa(V1)." plus V1 < 2 and V1 < 3 variants.
    EXPECT_EQ(space.candidates.size(), 3u);
}

TEST(Space, VarVsVarComparisons) {
    ModeBias bias;
    bias.body.push_back(ModeAtom("a", {ArgSpec::var("n")}, 1));
    bias.body.push_back(ModeAtom("b", {ArgSpec::var("n")}, 2));
    bias.comparisons.push_back(ComparisonMode("n", {asp::Comparison::Op::Gt},
                                              /*var_vs_const=*/false, /*var_vs_var=*/true));
    bias.max_body_atoms = 2;
    bias.max_vars = 2;
    auto space = generate_space(bias, {0});
    bool found = false;
    for (const auto& c : space.candidates) {
        if (c.rule.to_string() == ":- a(V1)@1, b(V2)@2, V1 > V2.") found = true;
    }
    EXPECT_TRUE(found);
}

// Comparison candidates follow the variables' (type, index) order, the
// order a fresh process gives, whatever the process interned before.
TEST(Space, ComparisonOrderDoesNotDependOnInterningHistory) {
    // A type no other test uses. V_ordered_2 is interned first, then enough
    // other names that every intern shard moves past it, so it gets a
    // smaller Symbol id than V_ordered_1 (and V_ordered_0, interned by the
    // generator).
    Symbol two("V_ordered_2");
    for (int i = 0; i < 16384; ++i) Symbol("ordered_filler_" + std::to_string(i));
    Symbol one("V_ordered_1");
    ASSERT_LT(two.id(), one.id());

    ModeBias bias;
    bias.body.push_back(ModeAtom("p", {ArgSpec::var("ordered")}));
    bias.comparisons.push_back(ComparisonMode("ordered", {asp::Comparison::Op::Lt},
                                              /*var_vs_const=*/false, /*var_vs_var=*/true));
    bias.min_body_atoms = 3;
    bias.max_body_atoms = 3;
    bias.max_vars = 3;
    auto space = generate_space(bias, {0});
    std::vector<std::string> rules;
    for (const auto& c : space.candidates) rules.push_back(c.rule.to_string());
    const std::vector<std::string> expected = {
        ":- p(V1), p(V1), p(V1).",
        ":- p(V1), p(V1), p(V2).",
        ":- p(V1), p(V1), p(V2), V1 < V2.",
        ":- p(V1), p(V1), p(V2), V2 < V1.",
        ":- p(V1), p(V2), p(V1).",
        ":- p(V1), p(V2), p(V1), V1 < V2.",
        ":- p(V1), p(V2), p(V1), V2 < V1.",
        ":- p(V1), p(V2), p(V2).",
        ":- p(V1), p(V2), p(V2), V1 < V2.",
        ":- p(V1), p(V2), p(V2), V2 < V1.",
        ":- p(V1), p(V2), p(V3).",
        ":- p(V1), p(V2), p(V3), V1 < V2.",
        ":- p(V1), p(V2), p(V3), V1 < V3.",
        ":- p(V1), p(V2), p(V3), V2 < V1.",
        ":- p(V1), p(V2), p(V3), V2 < V3.",
        ":- p(V1), p(V2), p(V3), V3 < V1.",
        ":- p(V1), p(V2), p(V3), V3 < V2.",
    };
    EXPECT_EQ(rules, expected);
}

TEST(Space, NegatedBodyLiteralsWhenAllowed) {
    ModeBias bias;
    bias.body.push_back(ModeAtom("p", {}));
    bias.body.push_back(ModeAtom("q", {}, asp::kUnannotated, /*neg=*/true));
    bias.max_body_atoms = 2;
    auto space = generate_space(bias, {0});
    bool found_neg = false;
    for (const auto& c : space.candidates) {
        if (c.rule.to_string() == ":- p, not q.") found_neg = true;
        // A purely negative constraint body is unsafe only with variables;
        // ground ":- not q." is fine and should also exist.
        if (c.rule.to_string() == ":- not q.") found_neg = found_neg;
    }
    EXPECT_TRUE(found_neg);
}

TEST(Space, UnsafeRulesAreFiltered) {
    ModeBias bias;
    bias.body.push_back(ModeAtom("p", {ArgSpec::var("t")}, asp::kUnannotated, /*neg=*/true));
    bias.max_body_atoms = 1;
    bias.max_vars = 1;
    auto space = generate_space(bias, {0});
    // The positive variant ":- p(V1)." is safe and kept; the negated
    // variant ":- not p(V1)." is unsafe and must be filtered.
    ASSERT_EQ(space.candidates.size(), 1u);
    EXPECT_EQ(space.candidates[0].rule.to_string(), ":- p(V1).");
}

TEST(Space, HeadModesProduceNormalRules) {
    ModeBias bias;
    bias.allow_constraints = false;
    bias.head.push_back(ModeAtom("ok", {}));
    bias.body.push_back(ModeAtom("weather", {ArgSpec::constant("w")}));
    bias.add_symbol_constants("w", {"sunny", "rainy"});
    bias.max_body_atoms = 1;
    auto space = generate_space(bias, {0});
    ASSERT_EQ(space.candidates.size(), 2u);
    EXPECT_FALSE(space.constraints_only());
    EXPECT_EQ(space.candidates[0].rule.head->predicate.str(), "ok");
}

TEST(Space, AlphaEquivalentRulesAreDeduped) {
    ModeBias bias;
    bias.body.push_back(ModeAtom("p", {ArgSpec::var("t")}, 1));
    bias.max_body_atoms = 1;
    bias.max_vars = 3;  // three var indices all collapse to V1
    auto space = generate_space(bias, {0});
    EXPECT_EQ(space.candidates.size(), 1u);
}

TEST(Space, ThrowsWhenSpaceExplodes) {
    ModeBias bias;
    bias.body.push_back(ModeAtom("p", {ArgSpec::constant("c"), ArgSpec::constant("c"),
                                       ArgSpec::constant("c")}));
    for (int i = 0; i < 40; ++i) bias.add_int_constants("c", {i});
    bias.max_body_atoms = 2;
    SpaceLimits limits;
    limits.max_candidates = 1000;
    EXPECT_THROW(generate_space(bias, {0}, limits), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Learning (fast path: constraint-only spaces)
// ---------------------------------------------------------------------------

// Initial ASG: syntax only, no semantic conditions yet — the learner must
// discover them (the Figure 1 workflow).
const char* kTaskInitial = R"(
    request -> "do" task
    task -> "patrol" { requires(2). }
    task -> "strike" { requires(4). }
    task -> "observe" { requires(1). }
)";

ModeBias task_bias() {
    ModeBias bias;
    bias.body.push_back(ModeAtom("requires", {ArgSpec::var("lvl")}, 2));
    bias.body.push_back(ModeAtom("maxloa", {ArgSpec::var("lvl")}));
    bias.comparisons.push_back(ComparisonMode("lvl", {asp::Comparison::Op::Gt, asp::Comparison::Op::Lt},
                                              /*var_vs_const=*/false, /*var_vs_var=*/true));
    bias.max_body_atoms = 2;
    bias.max_vars = 2;
    bias.max_comparisons = 1;
    return bias;
}

LearningTask make_task() {
    LearningTask task;
    task.initial = asg::AnswerSetGrammar::parse(kTaskInitial);
    task.space = generate_space(task_bias(), {0});
    auto ctx = [](int m) { return asp::parse_program("maxloa(" + std::to_string(m) + ")."); };
    task.positive.emplace_back(tokenize("do patrol"), ctx(3));
    task.positive.emplace_back(tokenize("do strike"), ctx(5));
    task.positive.emplace_back(tokenize("do observe"), ctx(1));
    task.negative.emplace_back(tokenize("do strike"), ctx(3));
    task.negative.emplace_back(tokenize("do patrol"), ctx(1));
    return task;
}

TEST(Learner, RecoversLoaConstraint) {
    auto task = make_task();
    auto result = learn(task);
    ASSERT_TRUE(result.found) << result.failure_reason;
    EXPECT_TRUE(result.stats.used_fast_path);
    ASSERT_EQ(result.hypothesis.size(), 1u);
    // Either orientation of the same constraint is acceptable.
    auto text = result.hypothesis[0].first.to_string();
    EXPECT_TRUE(text == ":- requires(V1)@2, maxloa(V2), V1 > V2." ||
                text == ":- maxloa(V1), requires(V2)@2, V2 > V1." ||
                text == ":- maxloa(V1), requires(V2)@2, V1 < V2.")
        << text;
}

TEST(Learner, LearnedGrammarGeneralizes) {
    auto task = make_task();
    auto result = learn(task);
    ASSERT_TRUE(result.found);
    auto learned = task.initial.with_rules(result.hypothesis);
    // Held-out checks across contexts.
    for (int m = 1; m <= 5; ++m) {
        auto ctx = asp::parse_program("maxloa(" + std::to_string(m) + ").");
        EXPECT_EQ(asg::in_language(learned, tokenize("do patrol"), ctx), m >= 2) << m;
        EXPECT_EQ(asg::in_language(learned, tokenize("do strike"), ctx), m >= 4) << m;
        EXPECT_EQ(asg::in_language(learned, tokenize("do observe"), ctx), m >= 1) << m;
    }
}

TEST(Learner, EmptyHypothesisWhenNoNegatives) {
    auto task = make_task();
    task.negative.clear();
    auto result = learn(task);
    ASSERT_TRUE(result.found);
    EXPECT_TRUE(result.hypothesis.empty());
    EXPECT_EQ(result.cost, 0);
}

TEST(Learner, FailsWhenPositiveOutsideCfg) {
    auto task = make_task();
    task.positive.emplace_back(tokenize("do fly"), asp::Program{});
    auto result = learn(task);
    EXPECT_FALSE(result.found);
    EXPECT_FALSE(result.failure_reason.empty());
}

TEST(Learner, FailsOnContradictoryExamples) {
    auto task = make_task();
    // Same string, same context, both positive and negative.
    auto ctx = asp::parse_program("maxloa(3).");
    task.positive.emplace_back(tokenize("do patrol"), ctx);
    task.negative.emplace_back(tokenize("do patrol"), ctx);
    auto result = learn(task);
    EXPECT_FALSE(result.found);
}

TEST(Learner, PrefersMinimalCost) {
    // Negative example rejectable by a 1-literal constraint; a 2-literal
    // alternative also exists. Expect the cheap one.
    LearningTask task;
    task.initial = asg::AnswerSetGrammar::parse(R"(
        s -> "x" { p. q. }
        s -> "y" { q. }
    )");
    ModeBias bias;
    bias.body.push_back(ModeAtom("p", {}));
    bias.body.push_back(ModeAtom("q", {}));
    bias.max_body_atoms = 2;
    task.space = generate_space(bias, {0, 1});
    task.positive.emplace_back(tokenize("y"), asp::Program{});
    task.negative.emplace_back(tokenize("x"), asp::Program{});
    auto result = learn(task);
    ASSERT_TRUE(result.found);
    ASSERT_EQ(result.hypothesis.size(), 1u);
    EXPECT_EQ(result.hypothesis[0].first.to_string(), ":- p.");
    EXPECT_EQ(result.cost, 1);
}

TEST(Learner, MultipleConstraintsWhenOneCannotCover) {
    // Two negatives need two unrelated constraints.
    LearningTask task;
    task.initial = asg::AnswerSetGrammar::parse(R"(
        s -> "x" { a. }
        s -> "y" { b. }
        s -> "z" { c. }
    )");
    ModeBias bias;
    bias.body.push_back(ModeAtom("a", {}));
    bias.body.push_back(ModeAtom("b", {}));
    bias.body.push_back(ModeAtom("c", {}));
    bias.max_body_atoms = 1;
    task.space = generate_space(bias, {0, 1, 2});
    task.positive.emplace_back(tokenize("z"), asp::Program{});
    task.negative.emplace_back(tokenize("x"), asp::Program{});
    task.negative.emplace_back(tokenize("y"), asp::Program{});
    auto result = learn(task);
    ASSERT_TRUE(result.found);
    EXPECT_EQ(result.hypothesis.size(), 2u);
    std::set<std::string> rules;
    for (const auto& [r, p] : result.hypothesis) rules.insert(r.to_string());
    EXPECT_TRUE(rules.contains(":- a."));
    EXPECT_TRUE(rules.contains(":- b."));
}

TEST(Learner, WorldCapHitFallsBackToTheGeneralPath) {
    // "x" has 2^6 = 64 answer sets, more than the fast path enumerates
    // (max_worlds_per_example = 32). Every one holds c1 or d1, so
    // rejecting "x" takes both ":- c1." and ":- d1."; judged on its first
    // 32 answer sets alone, ":- c1." looks sufficient.
    std::string annotation;
    for (int i = 1; i <= 6; ++i) {
        std::string c = "c" + std::to_string(i);
        std::string d = "d" + std::to_string(i);
        annotation += " " + c + " :- not " + d + ". " + d + " :- not " + c + ".";
    }
    LearningTask task;
    task.initial = asg::AnswerSetGrammar::parse("s -> \"x\" {" + annotation +
                                                " }\ns -> \"y\" { }\n");
    ModeBias bias;
    for (int i = 1; i <= 6; ++i) {
        bias.body.push_back(ModeAtom("c" + std::to_string(i), {}));
        bias.body.push_back(ModeAtom("d" + std::to_string(i), {}));
    }
    bias.max_body_atoms = 1;
    task.space = generate_space(bias, {0});
    task.negative.emplace_back(tokenize("x"), asp::Program{});
    task.positive.emplace_back(tokenize("y"), asp::Program{});
    auto result = learn(task);
    ASSERT_TRUE(result.found) << result.failure_reason;
    EXPECT_TRUE(result.stats.world_cap_hit);
    EXPECT_EQ(result.cost, 2);
    auto learned = task.initial.with_rules(result.hypothesis);
    EXPECT_FALSE(asg::in_language(learned, tokenize("x"), asp::Program{}));
    EXPECT_TRUE(asg::in_language(learned, tokenize("y"), asp::Program{}));
}

TEST(Learner, FastPathDecidesEveryWorldOfALearnAlike) {
    // Every string has three answer sets: {p, u, lvl(1)}, {q, r, lvl(2)}
    // and {q, u, lvl(2)}. The only rule within cost 2 that rejects c(3)
    // but keeps c(1) and c(2) is ":- c(N), not lvl(N).", whose answer
    // differs between worlds of one example, so grouping worlds for the
    // open body must look at the negated lvl too. The fast path numbers
    // the worlds of a learn consecutively, positives first: the 21
    // positives hold worlds 0-62 and the negative's are 63-65, so its
    // mask spans two 64-bit words.
    LearningTask task;
    task.initial = asg::AnswerSetGrammar::parse(R"(
        s -> "go" { p :- not q. q :- not p. r :- not u. u :- not r. :- p, r.
                    lvl(1) :- p. lvl(2) :- q. }
    )");
    ModeBias bias;
    for (const char* atom : {"p", "q", "r", "u"}) bias.body.push_back(ModeAtom(atom, {}));
    bias.body.push_back(ModeAtom("c", {ArgSpec::var("n")}));
    bias.body.push_back(ModeAtom("lvl", {ArgSpec::var("n")}, asp::kUnannotated, true));
    bias.max_vars = 1;
    bias.max_body_atoms = 2;
    task.space = generate_space(bias, {0});
    auto context = [](int k) { return asp::parse_program("c(" + std::to_string(k) + ")."); };
    for (int i = 0; i < 21; ++i) task.positive.emplace_back(tokenize("go"), context(1 + i % 2));
    task.negative.emplace_back(tokenize("go"), context(3));

    auto fast = learn(task);
    ASSERT_TRUE(fast.found) << fast.failure_reason;
    EXPECT_TRUE(fast.stats.used_fast_path);
    EXPECT_FALSE(fast.stats.world_cap_hit);
    LearnOptions general_options;
    general_options.allow_fast_path = false;
    auto general = learn(task, general_options);
    ASSERT_TRUE(general.found) << general.failure_reason;
    EXPECT_EQ(fast.cost, 2);
    EXPECT_EQ(general.cost, 2);
    auto learned = task.initial.with_rules(fast.hypothesis);
    for (const auto& ex : task.positive) {
        EXPECT_TRUE(asg::in_language(learned, ex.string, ex.context));
    }
    EXPECT_FALSE(asg::in_language(learned, task.negative[0].string, task.negative[0].context))
        << fast.hypothesis_to_string();
}

TEST(Learner, RespectsAnswerSetSemanticsOnNegatives) {
    // The base annotation has two answer sets ({p} and {q}); rejecting the
    // string requires killing BOTH, which single constraint ":- p." cannot.
    LearningTask task;
    task.initial = asg::AnswerSetGrammar::parse(R"(
        s -> "x" {
            p :- not q.
            q :- not p.
        }
    )");
    ModeBias bias;
    bias.body.push_back(ModeAtom("p", {}));
    bias.body.push_back(ModeAtom("q", {}));
    bias.max_body_atoms = 1;
    task.space = generate_space(bias, {0});
    task.negative.emplace_back(tokenize("x"), asp::Program{});
    auto result = learn(task);
    ASSERT_TRUE(result.found) << result.failure_reason;
    // Needs both ":- p." and ":- q.".
    EXPECT_EQ(result.hypothesis.size(), 2u);
}

// ---------------------------------------------------------------------------
// Noise-tolerant learning (penalty-based fast path)
// ---------------------------------------------------------------------------

TEST(NoisyLearner, CleanDataMatchesStrictMode) {
    auto task = make_task();
    auto strict = learn(task);
    LearnOptions noisy;
    noisy.noise_penalty = 10;
    auto tolerant = learn(task, noisy);
    ASSERT_TRUE(strict.found);
    ASSERT_TRUE(tolerant.found);
    EXPECT_EQ(tolerant.violated_examples, 0u);
    EXPECT_EQ(tolerant.cost, strict.cost);
}

TEST(NoisyLearner, SurvivesContradictoryExamples) {
    auto task = make_task();
    auto ctx = asp::parse_program("maxloa(3).");
    task.positive.emplace_back(tokenize("do patrol"), ctx);
    task.negative.emplace_back(tokenize("do patrol"), ctx);  // contradiction
    EXPECT_FALSE(learn(task).found);
    LearnOptions noisy;
    noisy.noise_penalty = 5;
    auto tolerant = learn(task, noisy);
    ASSERT_TRUE(tolerant.found) << tolerant.failure_reason;
    EXPECT_EQ(tolerant.violated_examples, 1u);  // one side of the contradiction
}

TEST(NoisyLearner, SacrificesFlippedLabelAndRecoversPolicy) {
    auto task = make_task();
    // A single mislabelled positive: strike under maxloa(2) marked valid.
    task.positive.emplace_back(tokenize("do strike"), asp::parse_program("maxloa(2)."));
    EXPECT_FALSE(learn(task).found);
    LearnOptions noisy;
    noisy.noise_penalty = 6;  // cheaper to drop one example than to distort the policy
    auto tolerant = learn(task, noisy);
    ASSERT_TRUE(tolerant.found) << tolerant.failure_reason;
    EXPECT_EQ(tolerant.violated_examples, 1u);
    // The recovered model is the true LOA policy.
    auto learned = task.initial.with_rules(tolerant.hypothesis);
    EXPECT_FALSE(asg::in_language(learned, tokenize("do strike"), asp::parse_program("maxloa(2).")));
    EXPECT_TRUE(asg::in_language(learned, tokenize("do patrol"), asp::parse_program("maxloa(3).")));
}

TEST(NoisyLearner, LowPenaltyPrefersDroppingOverComplexRules) {
    // With a tiny penalty, abandoning all negatives beats learning rules.
    auto task = make_task();
    LearnOptions noisy;
    noisy.noise_penalty = 1;
    auto tolerant = learn(task, noisy);
    ASSERT_TRUE(tolerant.found);
    EXPECT_TRUE(tolerant.hypothesis.empty());
    EXPECT_EQ(tolerant.violated_examples, 2u);  // both negatives abandoned
}

TEST(NoisyLearner, WorldlessPositiveIsCountedViolated) {
    auto task = make_task();
    task.positive.emplace_back(tokenize("do fly"), asp::Program{});  // not even in the CFG
    EXPECT_FALSE(learn(task).found);
    LearnOptions noisy;
    noisy.noise_penalty = 8;
    auto tolerant = learn(task, noisy);
    ASSERT_TRUE(tolerant.found) << tolerant.failure_reason;
    EXPECT_EQ(tolerant.violated_examples, 1u);
}

// ---------------------------------------------------------------------------
// Learning (general path: normal rules in the space)
// ---------------------------------------------------------------------------

TEST(Learner, GeneralPathLearnsDefinition) {
    LearningTask task;
    task.initial = asg::AnswerSetGrammar::parse(R"(
        s -> "x" { :- not ok. }
    )");
    ModeBias bias;
    bias.allow_constraints = false;
    bias.head.push_back(ModeAtom("ok", {}));
    bias.body.push_back(ModeAtom("weather", {ArgSpec::constant("w")}));
    bias.add_symbol_constants("w", {"sunny", "rainy", "fog"});
    bias.max_body_atoms = 1;
    task.space = generate_space(bias, {0});
    task.positive.emplace_back(tokenize("x"), asp::parse_program("weather(sunny)."));
    task.negative.emplace_back(tokenize("x"), asp::parse_program("weather(rainy)."));
    task.negative.emplace_back(tokenize("x"), asp::parse_program("weather(fog)."));
    auto result = learn(task);
    ASSERT_TRUE(result.found) << result.failure_reason;
    EXPECT_FALSE(result.stats.used_fast_path);
    ASSERT_EQ(result.hypothesis.size(), 1u);
    EXPECT_EQ(result.hypothesis[0].first.to_string(), "ok :- weather(sunny).");
    EXPECT_GE(result.stats.cegis_iterations, 1u);
}

TEST(Learner, GeneralPathHonoursMaxRules) {
    LearningTask task;
    task.initial = asg::AnswerSetGrammar::parse(R"(
        s -> "x" { :- not ok. }
    )");
    ModeBias bias;
    bias.allow_constraints = false;
    bias.head.push_back(ModeAtom("ok", {}));
    bias.body.push_back(ModeAtom("w", {ArgSpec::constant("w")}));
    bias.add_symbol_constants("w", {"a", "b", "c"});
    bias.max_body_atoms = 1;
    task.space = generate_space(bias, {0});
    // Needs ok :- w(a) AND ok :- w(b): two rules.
    task.positive.emplace_back(tokenize("x"), asp::parse_program("w(a)."));
    task.positive.emplace_back(tokenize("x"), asp::parse_program("w(b)."));
    task.negative.emplace_back(tokenize("x"), asp::parse_program("w(c)."));
    LearnOptions options;
    options.max_rules = 1;
    auto restricted = learn(task, options);
    EXPECT_FALSE(restricted.found);
    options.max_rules = 2;
    auto full = learn(task, options);
    ASSERT_TRUE(full.found) << full.failure_reason;
    EXPECT_EQ(full.hypothesis.size(), 2u);
}

TEST(Learner, HypothesisAttachesToNonRootProduction) {
    // The constraint must live on the bracket production (production 0 of a
    // RECURSIVE grammar): it then fires at every nesting level, which a
    // root-only constraint could not express with local facts.
    LearningTask task;
    task.initial = asg::AnswerSetGrammar::parse(R"asg(
        s -> "(" s ")" {
            depth(N) :- depth(M)@2, N = M + 1.
        }
        s -> epsilon {
            depth(0).
        }
    )asg");
    ModeBias bias;
    bias.body.push_back(ModeAtom("depth", {ArgSpec::var("n")}));
    bias.body.push_back(ModeAtom("maxdepth", {ArgSpec::var("n")}));
    bias.comparisons.push_back(ComparisonMode("n", {asp::Comparison::Op::Gt},
                                              /*var_vs_const=*/false, /*var_vs_var=*/true));
    bias.max_body_atoms = 2;
    bias.max_vars = 2;
    task.space = generate_space(bias, {0});
    auto ctx = [](int d) { return asp::parse_program("maxdepth(" + std::to_string(d) + ")."); };
    task.positive.emplace_back(tokenize("( )"), ctx(1));
    task.positive.emplace_back(tokenize("( ( ) )"), ctx(2));
    task.negative.emplace_back(tokenize("( ( ) )"), ctx(1));
    auto result = learn(task);
    ASSERT_TRUE(result.found) << result.failure_reason;
    auto learned = task.initial.with_rules(result.hypothesis);
    // Generalizes to unseen depths.
    EXPECT_FALSE(asg::in_language(learned, tokenize("( ( ( ) ) )"), ctx(2)));
    EXPECT_TRUE(asg::in_language(learned, tokenize("( ( ( ) ) )"), ctx(3)));
}

TEST(Learner, ChoosesCorrectTargetProductionAmongSeveral) {
    // The same constraint rule is offered on two productions; only the
    // attachment to the "strike" production separates the examples.
    LearningTask task;
    task.initial = asg::AnswerSetGrammar::parse(R"(
        request -> "do" task
        task -> "patrol" { risky. }
        task -> "strike" { risky. }
    )");
    ModeBias bias;
    bias.body.push_back(ModeAtom("risky", {}));
    bias.max_body_atoms = 1;
    task.space = generate_space(bias, {1, 2});  // offered on both task productions
    task.positive.emplace_back(tokenize("do patrol"), asp::Program{});
    task.negative.emplace_back(tokenize("do strike"), asp::Program{});
    auto result = learn(task);
    ASSERT_TRUE(result.found) << result.failure_reason;
    ASSERT_EQ(result.hypothesis.size(), 1u);
    EXPECT_EQ(result.hypothesis[0].second, 2);  // attached to strike, not patrol
}

TEST(Learner, SearchBudgetCutsBothPathsTheSameWay) {
    // The minimum is ":- e@1, f@1." (cost 2); the first solution the fast
    // path's branch and bound meets is ":- a@1." plus it (cost 3). A search
    // the budget cuts off must not return that first solution as found.
    LearningTask task;
    task.initial = asg::AnswerSetGrammar::parse(R"(
        s -> t { }
        t -> "n1" { a. e. f. }
        t -> "n2" { e. f. g. h. }
        t -> "p1" { e. g. }
        t -> "p2" { f. h. }
    )");
    ModeBias bias;
    for (const char* p : {"a", "e", "f", "g", "h"}) bias.body.push_back(ModeAtom(p, {}, 1));
    bias.max_body_atoms = 2;
    task.space = generate_space(bias, {0});
    task.positive.emplace_back(tokenize("p1"), asp::Program{});
    task.positive.emplace_back(tokenize("p2"), asp::Program{});
    task.negative.emplace_back(tokenize("n1"), asp::Program{});
    task.negative.emplace_back(tokenize("n2"), asp::Program{});

    auto unbounded = learn(task);
    ASSERT_TRUE(unbounded.found) << unbounded.failure_reason;
    EXPECT_TRUE(unbounded.stats.used_fast_path);
    EXPECT_EQ(unbounded.cost, 2);
    for (bool fast : {true, false}) {
        for (std::size_t budget = 1; budget <= 6; ++budget) {
            LearnOptions options;
            options.allow_fast_path = fast;
            options.search_budget = budget;
            auto result = learn(task, options);
            EXPECT_FALSE(result.found) << "fast " << fast << " budget " << budget << " cost "
                                       << result.cost << "\n" << result.hypothesis_to_string();
            EXPECT_EQ(result.failure_reason, "search budget exhausted")
                << "fast " << fast << " budget " << budget;
            EXPECT_EQ(result.stats.search_nodes, budget + 1) << "fast " << fast;
        }
    }
}

// ---------------------------------------------------------------------------
// Differential: both paths against Definition 3 on random tasks
// ---------------------------------------------------------------------------

// The largest number of nodes one production labels in one parse tree of
// `examples`, per production.
std::vector<std::size_t> nodes_per_tree(const asg::AnswerSetGrammar& g,
                                        const std::vector<Example>& examples) {
    std::vector<std::size_t> most(g.production_count(), 0);
    for (const auto& ex : examples) {
        for (const auto& tree : cfg::parse_trees(g.grammar(), ex.string)) {
            std::vector<std::size_t> count(g.production_count(), 0);
            for (const auto& node : asg::production_nodes(tree)) {
                auto p = static_cast<std::size_t>(node.second);
                most[p] = std::max(most[p], ++count[p]);
            }
        }
    }
    return most;
}

// A constraint-only bias over the random grammars' predicates (p/1, q/1,
// t, and the context's r/1), each read at the target node or at one of
// its nonterminal children: variables with comparisons, constants, and
// negated literals.
ModeBias random_bias(util::Rng& rng, const random_asg::Production& target) {
    std::vector<int> annotations = {asp::kUnannotated};
    for (std::size_t i = 0; i < target.body.size(); ++i) {
        if (target.body[i] >= 0) annotations.push_back(static_cast<int>(i) + 1);
    }
    auto at = [&] { return rng.choice(annotations); };
    ModeBias bias;
    bias.max_vars = 1;
    bias.max_body_atoms = static_cast<int>(rng.uniform(1, 2));
    bias.max_comparisons = 0;
    bias.body.push_back(ModeAtom("p", {ArgSpec::var("n")}, at()));
    if (rng.bernoulli(0.5)) bias.body.push_back(ModeAtom("q", {ArgSpec::var("n")}, at(), true));
    if (rng.bernoulli(0.5)) {
        bias.body.push_back(ModeAtom("p", {ArgSpec::constant("n")}, at(), rng.bernoulli(0.5)));
    }
    if (rng.bernoulli(0.3)) bias.body.push_back(ModeAtom("t", {}, at(), true));
    if (rng.bernoulli(0.3)) bias.body.push_back(ModeAtom("r", {ArgSpec::var("n")}));
    if (rng.bernoulli(0.5)) {
        bias.comparisons.push_back(
            ComparisonMode("n", {asp::Comparison::Op::Gt, asp::Comparison::Op::Lt}));
        bias.max_comparisons = 1;
    }
    for (std::int64_t k = 0; k <= 3; ++k) {
        if (rng.bernoulli(0.4)) bias.add_constant("n", asp::Term::integer(k));
    }
    return bias;
}

bool satisfies(const asg::AnswerSetGrammar& g, const LearningTask& task, const Hypothesis& h) {
    auto learned = g.with_rules(h);
    for (const auto& ex : task.positive) {
        if (!asg::in_language(learned, ex.string, ex.context)) return false;
    }
    for (const auto& ex : task.negative) {
        if (asg::in_language(learned, ex.string, ex.context)) return false;
    }
    return true;
}

// The least cost of a subset of S_M within `max_cost` that satisfies every
// example by plain membership; -1 when none does.
int exhaustive_minimum(const LearningTask& task, int max_cost) {
    const auto& candidates = task.space.candidates;
    int best = -1;
    for (std::uint32_t subset = 0; subset < (1U << candidates.size()); ++subset) {
        int cost = 0;
        Hypothesis h;
        for (std::size_t c = 0; c < candidates.size(); ++c) {
            if ((subset >> c & 1U) == 0) continue;
            cost += candidates[c].cost;
            h.emplace_back(candidates[c].rule, candidates[c].production);
        }
        if (cost > max_cost || (best >= 0 && cost >= best)) continue;
        if (satisfies(task.initial, task, h)) best = cost;
    }
    return best;
}

TEST(LearnerDifferential, FastAndGeneralPathsAgreeWithDefinitionThree) {
    // Seeded random grammars (tests/random_asg.hpp), a random bias on one
    // target production, and examples labelled by a hidden hypothesis
    // drawn from S_M, so some hypothesis within its cost always exists.
    // Every third task enumerates at most two answer sets per example;
    // the even negation loops of the grammars exceed that.
    constexpr std::size_t kMaxSpace = 24;
    constexpr std::size_t kExhaustiveSpace = 12;
    constexpr int kTasks = 120;
    util::Rng rng(20);
    int tasks = 0, multi_node = 0, multi_tree = 0, cap_hits = 0, exhaustive = 0;
    int negated = 0, compared = 0, constants = 0;
    for (int attempt = 0; tasks < kTasks && attempt < 4000; ++attempt) {
        std::string text;
        auto productions = random_asg::random_grammar(rng, text);
        auto g = asg::AnswerSetGrammar::parse(text);
        std::vector<asp::Program> contexts = {asp::parse_program(random_asg::random_context(rng)),
                                              asp::parse_program(random_asg::random_context(rng))};
        std::vector<Example> examples;
        std::set<std::string> seen;
        for (int i = 0; i < 7; ++i) {
            std::string s;
            if (i >= 5 || !random_asg::derive(rng, productions, 0, 0, s)) {
                s = random_asg::random_string(rng);
            }
            if (!seen.insert(s).second) continue;
            for (const auto& context : contexts) examples.emplace_back(tokenize(s), context);
        }

        // Prefer a target that labels several nodes of one tree.
        auto most = nodes_per_tree(g, examples);
        std::vector<int> repeated;
        for (std::size_t p = 0; p < most.size(); ++p) {
            if (most[p] >= 2) repeated.push_back(static_cast<int>(p));
        }
        int target = !repeated.empty() && rng.bernoulli(0.7)
                         ? rng.choice(repeated)
                         : static_cast<int>(rng.uniform(0, static_cast<std::int64_t>(most.size()) - 1));
        ModeBias bias = random_bias(rng, productions[static_cast<std::size_t>(target)]);
        LearningTask task;
        task.initial = g;
        task.space = generate_space(bias, {target});
        const auto& candidates = task.space.candidates;
        if (candidates.empty() || candidates.size() > kMaxSpace) continue;

        Hypothesis hidden;
        int hidden_cost = 0;
        for (std::int64_t n = rng.uniform(1, 2); n > 0; --n) {
            const auto& c = rng.choice(candidates);
            hidden.emplace_back(c.rule, c.production);
            hidden_cost += c.cost;
        }
        if (hidden_cost > 3) continue;
        auto truth = g.with_rules(hidden);
        bool informative = false;
        for (auto& ex : examples) {
            if (asg::in_language(truth, ex.string, ex.context)) {
                task.positive.push_back(std::move(ex));
            } else {
                informative = informative || asg::in_language(g, ex.string, ex.context);
                task.negative.push_back(std::move(ex));
            }
        }
        if (task.positive.empty() || !informative) continue;

        ++tasks;
        std::string where = "task " + std::to_string(tasks) + ", target " +
                            std::to_string(target) + ", hidden:\n";
        for (const auto& [rule, production] : hidden) where += "  " + rule.to_string() + "\n";
        where += text;
        LearnOptions options;
        options.max_cost = hidden_cost;
        options.max_rules = 8;
        if (tasks % 3 == 0) options.max_worlds_per_example = 2;
        auto fast = learn(task, options);
        LearnOptions general_options = options;
        general_options.allow_fast_path = false;
        auto general = learn(task, general_options);

        ASSERT_TRUE(fast.found) << fast.failure_reason << "\n" << where;
        ASSERT_TRUE(general.found) << general.failure_reason << "\n" << where;
        EXPECT_EQ(fast.cost, general.cost) << where;
        EXPECT_TRUE(satisfies(g, task, fast.hypothesis)) << fast.hypothesis_to_string() << where;
        EXPECT_TRUE(satisfies(g, task, general.hypothesis)) << general.hypothesis_to_string() << where;
        if (candidates.size() <= kExhaustiveSpace) {
            ++exhaustive;
            EXPECT_EQ(fast.cost, exhaustive_minimum(task, options.max_cost)) << where;
        }
        // At a penalty above max_cost no example is worth sacrificing, so
        // the noisy search must find the strict minimum.
        LearnOptions noisy_options = options;
        noisy_options.noise_penalty = options.max_cost + 1;
        auto noisy = learn(task, noisy_options);
        ASSERT_TRUE(noisy.found) << noisy.failure_reason << "\n" << where;
        EXPECT_EQ(noisy.cost, fast.cost) << where;
        EXPECT_EQ(noisy.violated_examples, 0U) << where;

        multi_node += most[static_cast<std::size_t>(target)] >= 2;
        bool ambiguous = false;
        for (const auto* group : {&task.positive, &task.negative}) {
            for (const auto& ex : *group) {
                ambiguous = ambiguous || cfg::parse_trees(g.grammar(), ex.string).size() >= 2;
            }
        }
        multi_tree += ambiguous;
        cap_hits += fast.stats.world_cap_hit;
        bool neg = false, cmp = false, constant = false;
        for (const auto& c : candidates) {
            for (const auto& l : c.rule.body) {
                neg = neg || !l.positive;
                for (const auto& arg : l.atom.args) constant = constant || arg.is_integer();
            }
            cmp = cmp || !c.rule.builtins.empty();
        }
        negated += neg;
        compared += cmp;
        constants += constant;
    }
    // The generator reaches every shape it aims at.
    EXPECT_EQ(tasks, kTasks);
    EXPECT_GT(multi_node, 0);
    EXPECT_GT(multi_tree, 0);
    EXPECT_GT(cap_hits, 0);
    EXPECT_GT(exhaustive, 0);
    EXPECT_GT(negated, 0);
    EXPECT_GT(compared, 0);
    EXPECT_GT(constants, 0);
}

// ---------------------------------------------------------------------------
// Statistical search guidance (Section V.C)
// ---------------------------------------------------------------------------

TEST(Guidance, UntrainedScorerIsNeutral) {
    SearchGuidance guidance;
    EXPECT_FALSE(guidance.trained());
    Candidate c{asp::parse_rule(":- p."), 0, 1};
    EXPECT_DOUBLE_EQ(guidance.score(c), 0.5);
}

TEST(Guidance, FeaturesCaptureRuleShape) {
    Candidate c{asp::parse_rule(":- requires(L)@2, not maxloa(M), L > M."), 0, 3};
    auto f = SearchGuidance::features(c);
    ASSERT_EQ(f.size(), SearchGuidance::feature_schema().size());
    EXPECT_EQ(f[0], 3);  // cost
    EXPECT_EQ(f[1], 2);  // body literals
    EXPECT_EQ(f[2], 1);  // negatives
    EXPECT_EQ(f[3], 1);  // comparisons
    EXPECT_EQ(f[4], 2);  // distinct vars
    EXPECT_EQ(f[6], 1);  // annotated atoms
    EXPECT_EQ(f[7], 2);  // max annotation
}

TEST(Guidance, LearnsToPreferUsefulShapes) {
    // Train on several solved tasks; the scorer should rank the kind of
    // rule that keeps winning (2 literals + var-var comparison) above a
    // plain single-literal candidate.
    SearchGuidance guidance;
    for (int i = 0; i < 3; ++i) {
        auto task = make_task();
        auto result = learn(task);
        ASSERT_TRUE(result.found);
        guidance.record(task, result);
    }
    ASSERT_TRUE(guidance.train());
    EXPECT_GT(guidance.observations(), 10u);

    Candidate winner{asp::parse_rule(":- requires(V1)@2, maxloa(V2), V1 > V2."), 0, 3};
    Candidate loser{asp::parse_rule(":- maxloa(V1)."), 0, 1};
    EXPECT_GT(guidance.score(winner), guidance.score(loser));
}

TEST(Guidance, GuidedSearchFindsSameMinimalHypothesis) {
    SearchGuidance guidance;
    auto seed_task = make_task();
    auto seed = learn(seed_task);
    ASSERT_TRUE(seed.found);
    guidance.record(seed_task, seed);
    ASSERT_TRUE(guidance.train());

    auto task = make_task();
    LearnOptions guided;
    guided.guidance = &guidance;
    auto with = learn(task, guided);
    auto without = learn(task);
    ASSERT_TRUE(with.found);
    ASSERT_TRUE(without.found);
    EXPECT_EQ(with.cost, without.cost);  // exactness preserved
}

TEST(Guidance, RankingPutsHighScoresFirst) {
    SearchGuidance guidance;
    auto task = make_task();
    auto result = learn(task);
    ASSERT_TRUE(result.found);
    guidance.record(task, result);
    ASSERT_TRUE(guidance.train());
    auto order = guidance.ranking(task.space.candidates);
    ASSERT_EQ(order.size(), task.space.candidates.size());
    for (std::size_t i = 1; i < order.size(); ++i) {
        EXPECT_GE(guidance.score(task.space.candidates[order[i - 1]]),
                  guidance.score(task.space.candidates[order[i]]));
    }
}

// ---------------------------------------------------------------------------
// Classifier facade
// ---------------------------------------------------------------------------

TEST(Classifier, FitPredictRoundTrip) {
    auto initial = asg::AnswerSetGrammar::parse(kTaskInitial);
    auto space = generate_space(task_bias(), {0});
    SymbolicPolicyClassifier clf(initial, space);

    std::vector<LabelledExample> train;
    auto ctx = [](int m) { return asp::parse_program("maxloa(" + std::to_string(m) + ")."); };
    train.push_back({tokenize("do patrol"), ctx(3), true});
    train.push_back({tokenize("do strike"), ctx(3), false});
    train.push_back({tokenize("do strike"), ctx(5), true});
    train.push_back({tokenize("do observe"), ctx(1), true});
    train.push_back({tokenize("do patrol"), ctx(1), false});
    ASSERT_TRUE(clf.fit(train));

    EXPECT_TRUE(clf.predict(tokenize("do patrol"), ctx(2)));
    EXPECT_FALSE(clf.predict(tokenize("do strike"), ctx(2)));
    EXPECT_TRUE(clf.predict(tokenize("do strike"), ctx(4)));
}

TEST(Classifier, UnfittedModelUsesInitialGrammar) {
    auto initial = asg::AnswerSetGrammar::parse(kTaskInitial);
    SymbolicPolicyClassifier clf(initial, {});
    // No semantic conditions: everything syntactic is accepted.
    EXPECT_TRUE(clf.predict(tokenize("do strike"), asp::parse_program("maxloa(0).")));
}

}  // namespace
}  // namespace agenp::ilp
