#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <typeinfo>

#include "asg/asg.hpp"
#include "asg/generate.hpp"
#include "asg/instantiate.hpp"
#include "asg/membership.hpp"
#include "asp/parser.hpp"
#include "mutate.hpp"
#include "random_asg.hpp"
#include "util/rng.hpp"

namespace agenp::asg {
namespace {

using cfg::tokenize;

// The a^n b^n grammar: sizes are computed recursively in the annotations and
// compared at the root — the canonical example of a non-context-free
// language carved out of a CFG by ASP conditions.
const char* kAnBn = R"(
    s -> as bs {
        :- size(N)@1, size(M)@2, N != M.
    }
    as -> "a" as {
        size(N) :- size(M)@2, N = M + 1.
    }
    as -> epsilon {
        size(0).
    }
    bs -> "b" bs {
        size(N) :- size(M)@2, N = M + 1.
    }
    bs -> epsilon {
        size(0).
    }
)";

// A coalition task-request ASG whose validity depends on a context-supplied
// autonomy ceiling (the CAV pattern from Section IV.A).
const char* kTaskAsg = R"(
    request -> "do" task {
        :- requires(L)@2, maxloa(M), L > M.
    }
    task -> "patrol" { requires(2). }
    task -> "strike" { requires(4). }
)";

TEST(AsgParse, ParsesProductionsAndAnnotations) {
    auto g = AnswerSetGrammar::parse(kTaskAsg);
    EXPECT_EQ(g.production_count(), 3u);
    EXPECT_EQ(g.grammar().start().str(), "request");
    EXPECT_EQ(g.annotation(0).size(), 1u);
    EXPECT_TRUE(g.annotation(0).rules()[0].is_constraint());
    EXPECT_EQ(g.annotation(1).rules()[0].head->to_string(), "requires(2)");
}

TEST(AsgParse, RejectsAnnotationBeyondArity) {
    EXPECT_THROW(AnswerSetGrammar::parse(R"(
        s -> "x" { :- p@2. }
    )"), AsgError);
}

// The ASP parser rejects a negative annotation, so a grammar holding one
// would print text that does not parse back.
TEST(AsgParse, WithRulesRejectsNegativeAnnotation) {
    auto g = AnswerSetGrammar::parse("s -> \"x\" t\nt -> \"y\"\n");
    asp::Rule rule;
    rule.body.emplace_back(asp::Atom("p", {}, -2), true);
    EXPECT_THROW(static_cast<void>(g.with_rules({{rule, 0}})), AsgError);
    rule.body.back().atom.annotation = 2;
    EXPECT_NO_THROW(static_cast<void>(g.with_rules({{rule, 0}})));
}

TEST(AsgParse, RejectsAlternativeBars) {
    EXPECT_THROW(AnswerSetGrammar::parse("s -> \"x\" | \"y\""), AsgError);
}

TEST(AsgParse, RejectsUndefinedNonterminal) {
    EXPECT_THROW(AnswerSetGrammar::parse("s -> t"), AsgError);
}

TEST(AsgParse, AllowsCommentsAndBlankLines) {
    auto g = AnswerSetGrammar::parse(R"(
        # top-level comment
        s -> "x" {
            % ASP comment
            p.
        }
    )");
    EXPECT_EQ(g.production_count(), 1u);
    EXPECT_EQ(g.annotation(0).size(), 1u);
}

TEST(AsgParse, ToStringRoundTripsThroughParse) {
    auto g = AnswerSetGrammar::parse(kTaskAsg);
    auto reparsed = AnswerSetGrammar::parse(g.to_string());
    EXPECT_EQ(reparsed.production_count(), g.production_count());
    EXPECT_EQ(reparsed.to_string(), g.to_string());
}

// --- mutation fuzzing ---------------------------------------------------------

// Integer literals past int64, at the top level and inside an annotation.
const char* const kOutOfRangeLiterals[] = {
    "p(99999999999999999999).",
    "s -> \"x\" {\n    p(9223372036854775808).\n}\n",
};

// The mutator's starting texts: every policy in examples/policies, the
// grammars above, ASP syntax the examples do not use, and the literals.
std::vector<std::string> policy_corpus() {
    std::vector<std::filesystem::path> files;
    const std::string dir = std::string(AGENP_SOURCE_DIR) + "/examples/policies";
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() == ".asg" || entry.path().extension() == ".lp") {
            files.push_back(entry.path());
        }
    }
    std::sort(files.begin(), files.end());  // a seed always draws the same mutants
    std::vector<std::string> corpus;
    for (const auto& file : files) {
        std::ifstream in(file);
        std::ostringstream text;
        text << in.rdbuf();
        corpus.push_back(text.str());
    }
    corpus.insert(corpus.end(), {kAnBn, kTaskAsg,
                                 "p(1..3, a). q(\"str\").\n"
                                 "r(X) :- p(X, a), not q(X), X >= 2, Z = X * 2 + -1 / (X - 1).\n"
                                 ":- r(X), X != 3.\n"});
    corpus.insert(corpus.end(), std::begin(kOutOfRangeLiterals), std::end(kOutOfRangeLiterals));
    return corpus;
}

// Fragments worth splicing into ASP and ASG text: structure, operators,
// integer edges, and bytes that are not UTF-8.
const char* const kPolicyFragments[] = {
    ".", ",", ":-", "(", ")", "{", "}", "@", "@2", "..", "not ", "->", "|", "\"", "%", "#",
    "epsilon", "X", "_", "-", "+", "*", "/", "!=", "<=", "0", "2147483648",
    "9223372036854775807", "9223372036854775808", "99999999999999999999", "\xc3\xa9", "\xff",
    "\n", " ",
};

const fuzz::Alphabet kPolicyAlphabet{kPolicyFragments, '(', ')'};

// Runs one parser on `text`: it parses, or it throws one of the three
// parse errors the CLI reports. Returns whether it parsed; any other
// exception fails the test.
template <class Parse>
bool parses_or_rejects(const std::string& text, Parse parse) {
    try {
        parse(text);
        return true;
    } catch (const asp::ParseError&) {
    } catch (const AsgError&) {
    } catch (const cfg::GrammarError&) {
    } catch (const std::exception& e) {
        ADD_FAILURE() << "escaped as " << typeid(e).name() << " (" << e.what() << ") for:\n"
                      << text;
    }
    return false;
}

TEST(ParserFuzz, MutatedPolicyTextParsesOrThrowsAParseError) {
    const std::vector<std::string> corpus = policy_corpus();
    ASSERT_GE(corpus.size(), 7u + 3u + std::size(kOutOfRangeLiterals));
    for (const char* literal : kOutOfRangeLiterals) {
        EXPECT_FALSE(parses_or_rejects(literal, asp::parse_program)) << literal;
        EXPECT_FALSE(parses_or_rejects(literal, AnswerSetGrammar::parse)) << literal;
    }

    // 16 fixed seeds x 1,000 mutants, each through both parsers: the same
    // texts on every run (and under the sanitizers, which run every ctest).
    constexpr std::uint64_t kSeeds = 16;
    constexpr std::size_t kMutantsPerSeed = 1000;
    std::size_t programs = 0, grammars = 0;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        std::mt19937_64 rng(seed);
        for (std::size_t i = 0; i < kMutantsPerSeed; ++i) {
            const std::string& base = corpus[rng() % corpus.size()];
            std::string text = fuzz::mutate(base, corpus, kPolicyAlphabet, rng);
            programs += parses_or_rejects(text, asp::parse_program);
            grammars += parses_or_rejects(text, AnswerSetGrammar::parse);
            if (::testing::Test::HasFailure()) FAIL() << "seed " << seed << ", mutant " << i;
        }
    }
    // Both sides of each parser are exercised.
    EXPECT_GT(programs, kSeeds * kMutantsPerSeed / 100);
    EXPECT_LT(programs, kSeeds * kMutantsPerSeed * 9 / 10);
    EXPECT_GT(grammars, kSeeds * kMutantsPerSeed / 100);
    EXPECT_LT(grammars, kSeeds * kMutantsPerSeed * 9 / 10);
}

TEST(Mangle, TraceFoldsIntoPredicateName) {
    EXPECT_EQ(mangle_predicate(util::Symbol("p"), {}).str(), "p@");
    EXPECT_EQ(mangle_predicate(util::Symbol("p"), {1, 2}).str(), "p@1.2");
}

TEST(Instantiate, RenamesAnnotatedAndLocalAtoms) {
    auto g = AnswerSetGrammar::parse(kTaskAsg);
    auto trees = cfg::parse_trees(g.grammar(), tokenize("do patrol"));
    ASSERT_EQ(trees.size(), 1u);
    auto program = instantiate(g, trees[0]);
    auto text = program.to_string();
    // Root constraint references child 2's namespace and its own (traces
    // are folded into the predicate names).
    EXPECT_NE(text.find(":- requires@2(L), maxloa@(M), L > M."), std::string::npos);
    // The task node's fact lands in namespace @2.
    EXPECT_NE(text.find("requires@2(2)."), std::string::npos);
}

TEST(Instantiate, ContextAddedAtEveryNode) {
    auto g = AnswerSetGrammar::parse(kTaskAsg);
    auto trees = cfg::parse_trees(g.grammar(), tokenize("do patrol"));
    auto program = instantiate(g, trees[0], asp::parse_program("maxloa(3)."));
    auto text = program.to_string();
    EXPECT_NE(text.find("maxloa@(3)."), std::string::npos);   // root namespace
    EXPECT_NE(text.find("maxloa@2(3)."), std::string::npos);  // task-node namespace
}

TEST(Membership, ContextControlsAcceptance) {
    auto g = AnswerSetGrammar::parse(kTaskAsg);
    auto ctx3 = asp::parse_program("maxloa(3).");
    auto ctx5 = asp::parse_program("maxloa(5).");
    EXPECT_TRUE(in_language(g, tokenize("do patrol"), ctx3));
    EXPECT_FALSE(in_language(g, tokenize("do strike"), ctx3));
    EXPECT_TRUE(in_language(g, tokenize("do strike"), ctx5));
}

TEST(Membership, NonCfgStringsAreRejectedOutright) {
    auto g = AnswerSetGrammar::parse(kTaskAsg);
    auto result = check_membership(g, tokenize("do fly"), asp::parse_program("maxloa(9)."));
    EXPECT_FALSE(result.in_language);
    EXPECT_EQ(result.trees_checked, 0);
}

TEST(Membership, AnBnLanguage) {
    auto g = AnswerSetGrammar::parse(kAnBn);
    EXPECT_TRUE(in_language(g, tokenize("")));
    EXPECT_TRUE(in_language(g, tokenize("a b")));
    EXPECT_TRUE(in_language(g, tokenize("a a a b b b")));
    EXPECT_FALSE(in_language(g, tokenize("a a b")));
    EXPECT_FALSE(in_language(g, tokenize("a b b")));
    EXPECT_FALSE(in_language(g, tokenize("b a")));
}

TEST(Membership, AnnotationChoiceNeedsOnlyOneAnswerSet) {
    // The annotation has two answer sets; one suffices for membership.
    auto g = AnswerSetGrammar::parse(R"(
        s -> "x" {
            p :- not q.
            q :- not p.
            :- q.
        }
    )");
    EXPECT_TRUE(in_language(g, tokenize("x")));
}

TEST(Membership, UnsatisfiableAnnotationRejects) {
    auto g = AnswerSetGrammar::parse(R"(
        s -> "x" { p. :- p. }
    )");
    EXPECT_FALSE(in_language(g, tokenize("x")));
}

TEST(Membership, AmbiguityAcceptsIfAnyTreeConsistent) {
    // Two parses of "x x x"; annotation kills only the left-heavy one
    // (the one whose FIRST child is itself a composite s s).
    auto g = AnswerSetGrammar::parse(R"(
        s -> s s {
            composite.
            :- composite@1.
        }
        s -> "x"
    )");
    EXPECT_TRUE(in_language(g, tokenize("x x x")));
}

TEST(Membership, MaxTreesCapCanMissAcceptingTree) {
    // Ambiguous grammar: the left-heavy tree is inconsistent, the
    // right-heavy one fine. With max_trees = 1 only one tree is examined,
    // so acceptance depends on the cap — documented approximation.
    auto g = AnswerSetGrammar::parse(R"(
        s -> s s {
            composite.
            :- composite@1.
        }
        s -> "x"
    )");
    MembershipOptions generous;
    generous.parse.max_trees = 16;
    EXPECT_TRUE(in_language(g, tokenize("x x x"), {}, generous));
    MembershipOptions capped;
    capped.parse.max_trees = 1;
    auto result = check_membership(g, tokenize("x x x"), {}, capped);
    EXPECT_EQ(result.trees_checked, 1);
}

TEST(WithRules, AddedConstraintNarrowsLanguage) {
    auto g = AnswerSetGrammar::parse(kTaskAsg);
    auto ctx = asp::parse_program("maxloa(9).");
    EXPECT_TRUE(in_language(g, tokenize("do strike"), ctx));
    // Learn-time addition: forbid tasks requiring more than 3 outright.
    auto g2 = g.with_rules({{asp::parse_rule(":- requires(L)@2, L > 3."), 0}});
    EXPECT_FALSE(in_language(g2, tokenize("do strike"), ctx));
    EXPECT_TRUE(in_language(g2, tokenize("do patrol"), ctx));
}

TEST(WithRules, RejectsBadProductionIndex) {
    auto g = AnswerSetGrammar::parse(kTaskAsg);
    EXPECT_THROW(g.with_rules({{asp::parse_rule(":- p."), 7}}), AsgError);
}

TEST(Language, EnumeratesContextDependentPolicies) {
    auto g = AnswerSetGrammar::parse(kTaskAsg);
    auto lang3 = language(g, asp::parse_program("maxloa(3)."));
    ASSERT_EQ(lang3.strings.size(), 1u);
    EXPECT_EQ(cfg::detokenize(lang3.strings[0]), "do patrol");
    auto lang9 = language(g, asp::parse_program("maxloa(9)."));
    EXPECT_EQ(lang9.strings.size(), 2u);
}

TEST(Language, AnBnEnumerationMatchesMembership) {
    auto g = AnswerSetGrammar::parse(kAnBn);
    LanguageOptions options;
    options.enumeration.max_strings = 200;
    options.enumeration.max_length = 8;
    auto lang = language(g, {}, options);
    std::set<std::string> sentences;
    for (const auto& s : lang.strings) sentences.insert(cfg::detokenize(s));
    EXPECT_TRUE(sentences.contains(""));
    EXPECT_TRUE(sentences.contains("a b"));
    EXPECT_TRUE(sentences.contains("a a b b"));
    EXPECT_FALSE(sentences.contains("a"));
    EXPECT_FALSE(sentences.contains("a a b"));
}

TEST(SolveTree, ExposesAnswerSetsForLearner) {
    auto g = AnswerSetGrammar::parse(kTaskAsg);
    auto trees = cfg::parse_trees(g.grammar(), tokenize("do patrol"));
    ASSERT_EQ(trees.size(), 1u);
    auto solved = solve_tree(g, trees[0], asp::parse_program("maxloa(3)."));
    ASSERT_TRUE(solved.satisfiable());
}

// Nested bracket grammar whose per-level depth is checked against a
// context-supplied ceiling — exercises deep traces (@1.2.2...), recursive
// annotation rules, and context distribution to every node.
const char* kBrackets = R"asg(
    s -> "(" s ")" {
        depth(N) :- depth(M)@2, N = M + 1.
        :- depth(N), maxdepth(D), N > D.
    }
    s -> epsilon {
        depth(0).
    }
)asg";

TEST(Membership, NestingDepthGatedByContext) {
    auto g = AnswerSetGrammar::parse(kBrackets);
    auto ctx = [](int d) { return asp::parse_program("maxdepth(" + std::to_string(d) + ")."); };
    EXPECT_TRUE(in_language(g, tokenize("( )"), ctx(1)));
    EXPECT_FALSE(in_language(g, tokenize("( ( ) )"), ctx(1)));
    EXPECT_TRUE(in_language(g, tokenize("( ( ) )"), ctx(2)));
    EXPECT_TRUE(in_language(g, tokenize(""), ctx(0)));
    EXPECT_FALSE(in_language(g, tokenize("( )"), ctx(0)));
}

TEST(Instantiate, DeepTracesAreNamespaced) {
    auto g = AnswerSetGrammar::parse(kBrackets);
    auto trees = cfg::parse_trees(g.grammar(), tokenize("( ( ) )"));
    ASSERT_EQ(trees.size(), 1u);
    auto program = instantiate(g, trees[0]);
    auto text = program.to_string();
    // The inner s sits at trace [2]; its child s at [2,2].
    EXPECT_NE(text.find("depth@2(N) :- depth@2.2(M), N = (M + 1)."), std::string::npos);
    EXPECT_NE(text.find("depth@2.2(0)."), std::string::npos);
}

TEST(Membership, DepthSweepMatchesClosedForm) {
    auto g = AnswerSetGrammar::parse(kBrackets);
    for (int depth = 0; depth <= 4; ++depth) {
        cfg::TokenString s;
        for (int i = 0; i < depth; ++i) s.emplace_back("(");
        for (int i = 0; i < depth; ++i) s.emplace_back(")");
        for (int ceiling = 0; ceiling <= 4; ++ceiling) {
            auto ctx = asp::parse_program("maxdepth(" + std::to_string(ceiling) + ").");
            EXPECT_EQ(in_language(g, s, ctx), depth <= ceiling)
                << "depth=" << depth << " ceiling=" << ceiling;
        }
    }
}

TEST(AsgParse, BodyPredicatesFollowAddProductionAndWithRules) {
    auto names = [](const AnswerSetGrammar& g) {
        std::set<std::string> out;
        for (util::Symbol p : g.body_predicates()) out.emplace(p.str());
        return out;
    };
    auto g = AnswerSetGrammar::parse(kTaskAsg);
    EXPECT_EQ(names(g), (std::set<std::string>{"requires", "maxloa"}));
    EXPECT_TRUE(std::is_sorted(g.body_predicates().begin(), g.body_predicates().end()));
    auto rule = asp::parse_program(":- not cleared, banned(X)@2, requires(X)@2.").rules()[0];
    auto extended = g.with_rules({{rule, 0}});
    EXPECT_EQ(names(extended), (std::set<std::string>{"requires", "maxloa", "cleared", "banned"}));
    EXPECT_EQ(names(g), (std::set<std::string>{"requires", "maxloa"}));  // the original is unchanged
}

// A root that reads r/1 in its own namespace and q/1 in its child's.
const char* kSliceAsg = R"(
    s -> "go" t { :- r(1). :- q(X)@2, X > 5. }
    t -> "x" { }
)";

std::string slice_text(const AnswerSetGrammar& g, const char* context) {
    return relevant_context(g, asp::parse_program(context)).to_string();
}

TEST(RelevantContext, DropsOnlyPositiveRulesWithUnreadHeads) {
    auto g = AnswerSetGrammar::parse(kSliceAsg);
    // Unread facts and positive rules deriving unread heads go.
    EXPECT_EQ(slice_text(g, "z(1). w(2). v(X) :- z(X). r(2)."), asp::parse_program("r(2).").to_string());
    // A chain into a read predicate is kept with everything it reads.
    EXPECT_EQ(slice_text(g, "w(3). r(X) :- z(X). z(1)."),
              asp::parse_program("r(X) :- z(X). z(1).").to_string());
    // A constraint is kept whatever it reads, and so is what it reads.
    EXPECT_EQ(slice_text(g, "w(3). :- z(2). z(2)."), asp::parse_program(":- z(2). z(2).").to_string());
    // Rules with negation are kept; @i is ignored when matching names.
    EXPECT_EQ(slice_text(g, "o :- not o. q(7)@1. w(1)@2."),
              asp::parse_program("o :- not o. q(7)@1.").to_string());
    // Extra reads seed the read set like the grammar's own.
    auto context = asp::parse_program("w(3). z(1).");
    EXPECT_EQ(relevant_context(g, context, {util::Symbol("w")}).to_string(),
              asp::parse_program("w(3).").to_string());
}

TEST(RelevantContext, HandWrittenCasesKeepTheLiteralVerdict) {
    auto g = AnswerSetGrammar::parse(kSliceAsg);
    auto go = tokenize("go x");
    auto same_verdict = [&](const char* text, bool expected) {
        auto context = asp::parse_program(text);
        EXPECT_EQ(in_language(g, go, context), expected) << text;
        EXPECT_EQ(in_language(g, go, relevant_context(g, context)), expected) << text;
    };
    same_verdict("z(1). w(2).", true);
    // An odd loop over unread atoms leaves no answer set: every string is
    // rejected, sliced or not.
    same_verdict("o :- not o. z(1).", false);
    same_verdict("r(X) :- z(X). z(1).", false);
    same_verdict(":- z(2). z(2).", false);
    same_verdict("q(9)@1.", true);  // lands in child 1's namespace; the root reads child 2's
    same_verdict("q(9).", false);   // q@2(9), copied into the child node
}

// The rules of G(C)[PT] for the one parse tree of `text`, printed one per
// line with their namespaces: all of them (literal) or the served cut
// (instantiate_relevant).
std::string tree_program(const AnswerSetGrammar& g, const char* text, const asp::Program& context,
                         bool served) {
    auto trees = cfg::parse_trees(g.grammar(), tokenize(text));
    EXPECT_EQ(trees.size(), 1u) << text;
    if (trees.empty()) return "";
    return (served ? instantiate_relevant(g, trees[0], context) : instantiate(g, trees[0], context))
        .to_string();
}

TEST(ServedVerdict, ContextFactReadOnlyAtTheRootStaysOnlyThere) {
    // The root reads r/1 in its own namespace; the child reads nothing, so
    // the child's copy of r(1) goes and the root's stays.
    auto g = AnswerSetGrammar::parse(kSliceAsg);
    auto context = asp::parse_program("r(1).");
    EXPECT_EQ(tree_program(g, "go x", context, false), ":- r@(1).\n:- q@2(X), X > 5.\nr@(1).\nr@2(1).\n");
    EXPECT_EQ(tree_program(g, "go x", context, true), ":- r@(1).\n:- q@2(X), X > 5.\nr@(1).\n");
    EXPECT_FALSE(in_language(g, tokenize("go x"), context));
    EXPECT_FALSE(accepts(g, tokenize("go x"), context));
    EXPECT_TRUE(accepts(g, tokenize("go x"), asp::parse_program("r(2).")));
}

TEST(ServedVerdict, AnnotatedHeadInAParentThatAChildReads) {
    // The parent derives p(1) into its child's namespace, ahead of the
    // child's constraint that reads it: only the closure keeps it.
    auto g = AnswerSetGrammar::parse(R"(
        s -> t "go" { p(1)@1. w(1). }
        t -> "x" { :- p(1). }
    )");
    EXPECT_EQ(tree_program(g, "x go", {}, false), "p@1(1).\nw@(1).\n:- p@1(1).\n");
    EXPECT_EQ(tree_program(g, "x go", {}, true), "p@1(1).\n:- p@1(1).\n");
    EXPECT_FALSE(in_language(g, tokenize("x go")));
    EXPECT_FALSE(accepts(g, tokenize("x go"), {}));
}

TEST(ServedVerdict, UnreadOddLoopInAChildStillRejects) {
    // Nothing reads q, but `q :- not q.` leaves G(C)[PT] no answer set.
    auto g = AnswerSetGrammar::parse(R"(
        s -> "go" t { ok. }
        t -> "x" { q :- not q. }
    )");
    EXPECT_EQ(tree_program(g, "go x", {}, true), "q@2 :- not q@2.\n");
    EXPECT_FALSE(in_language(g, tokenize("go x")));
    EXPECT_FALSE(accepts(g, tokenize("go x"), {}));
}

// Sliced ≡ served ≡ literal G(C)[PT], over random grammars and contexts with
// unread facts, chains, constraints, negation loops and @1 atoms. Sized
// like Memo.RandomGrammarsAgreeWithPlainMembership. Each grammar with a
// nonterminal child is also checked with one added rule, as a learned
// hypothesis would add it, that reads a context predicate (y) only through
// that child.
TEST(RelevantContext, RandomGrammarsAgreeWithLiteralMembership) {
    using namespace random_asg;
    util::Rng rng(22);
    std::size_t accepted = 0, rejected = 0, rules = 0, dropped = 0;
    for (int grammar_index = 0; grammar_index < 120; ++grammar_index) {
        std::string text;
        std::vector<Production> productions = random_grammar(rng, text);
        std::vector<AnswerSetGrammar> grammars = {AnswerSetGrammar::parse(text)};
        for (std::size_t i = 0; i < productions.size() && grammars.size() == 1; ++i) {
            const auto& body = productions[i].body;
            auto kid = std::find_if(body.begin(), body.end(), [](int sym) { return sym >= 0; });
            if (kid == body.end()) continue;
            auto rule = asp::parse_program(":- y(X)@" + std::to_string(kid - body.begin() + 1) +
                                           ", r(X).").rules()[0];
            grammars.push_back(grammars[0].with_rules({{rule, static_cast<int>(i)}}));
        }
        std::vector<std::string> strings;
        for (int i = 0; i < 6; ++i) {
            std::string s;
            if (i % 2 == 1 || !derive(rng, productions, 0, 0, s)) s = random_string(rng);
            strings.push_back(s);
        }
        for (int c = 0; c < 5; ++c) {
            std::string context_text = random_slice_context(rng);
            auto context = asp::parse_program(context_text);
            for (std::size_t v = 0; v < grammars.size(); ++v) {
                const AnswerSetGrammar& g = grammars[v];
                auto slice = relevant_context(g, context);
                rules += context.size();
                dropped += context.size() - slice.size();
                for (const auto& s : strings) {
                    MembershipResult literal = check_membership(g, tokenize(s), context);
                    MembershipResult sliced = check_membership(g, tokenize(s), slice);
                    (literal.in_language ? accepted : rejected) += 1;
                    EXPECT_EQ(sliced.in_language, literal.in_language)
                        << "grammar " << grammar_index << (v > 0 ? " with the y rule" : "") << " '"
                        << s << "' under " << context_text << "\n" << g.to_string();
                    EXPECT_EQ(sliced.resource_limited, literal.resource_limited)
                        << "grammar " << grammar_index << " '" << s << "' under " << context_text;
                    EXPECT_EQ(accepts(g, tokenize(s), context), literal.in_language)
                        << "served: grammar " << grammar_index << (v > 0 ? " with the y rule" : "")
                        << " '" << s << "' under " << context_text << "\n" << g.to_string();
                }
            }
        }
    }
    // The generator reaches what the slice decides on.
    EXPECT_GT(dropped, 0u);
    EXPECT_LT(dropped, rules);
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
    std::printf("relevant context: %zu cases, %zu accepted; %zu of %zu context rules dropped\n",
                accepted + rejected, accepted, dropped, rules);
}

// Property sweep over a^n b^m: accepted iff n == m.
class AnBnSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(AnBnSweep, AcceptIffBalanced) {
    auto [n, m] = GetParam();
    auto g = AnswerSetGrammar::parse(kAnBn);
    cfg::TokenString s;
    for (int i = 0; i < n; ++i) s.emplace_back("a");
    for (int i = 0; i < m; ++i) s.emplace_back("b");
    EXPECT_EQ(in_language(g, s), n == m);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AnBnSweep,
                         ::testing::Values(std::pair{0, 0}, std::pair{1, 1}, std::pair{4, 4},
                                           std::pair{2, 3}, std::pair{3, 2}, std::pair{5, 0},
                                           std::pair{0, 5}));

}  // namespace
}  // namespace agenp::asg
