// The grounding memo (asg/memo.hpp): memo-on results must be identical to
// the plain instantiate + ground + solve path (on hand-written and on
// randomly generated grammars), parse roots must retain only their verdict,
// entries must invalidate lazily on an epoch (model version) bump, the
// soundness gate must reject annotated heads, and the sharded table must
// survive concurrent use with concurrent epoch bumps (the TSan job runs
// this binary).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "asg/asg.hpp"
#include "asg/membership.hpp"
#include "asg/memo.hpp"
#include "asp/parser.hpp"
#include "asp/solver.hpp"
#include "random_asg.hpp"
#include "util/rng.hpp"

namespace agenp::asg {
namespace {

using cfg::tokenize;
using namespace random_asg;

const char* kTaskAsg = R"(
    request -> "do" task {
        :- requires(L)@2, maxloa(M), L > M.
    }
    task -> "patrol" { requires(2). }
    task -> "strike" { requires(4). }
)";

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

TEST(MemoGate, DemoStyleGrammarsPass) {
    auto ctx = asp::parse_program("maxloa(3).");
    EXPECT_TRUE(GroundingMemo::memoizable(AnswerSetGrammar::parse(kTaskAsg), ctx));
    EXPECT_TRUE(GroundingMemo::memoizable(AnswerSetGrammar::parse(kAnBn), {}));
}

TEST(MemoGate, AnnotatedHeadRejectsAndFallsBack) {
    // `mark@1.` derives an atom INTO child 1's namespace: the child's
    // fragment was grounded without it, so compositional grounding is
    // unsound and the gate must force the plain path.
    auto g = AnswerSetGrammar::parse(R"(
        s -> t t {
            mark@1.
            :- mark@1, bad@2.
        }
        t -> "x" { local. }
    )");
    EXPECT_FALSE(GroundingMemo::memoizable(g, {}));

    GroundingMemo memo;
    MembershipOptions options;
    options.memo = &memo;
    EXPECT_TRUE(in_language(g, tokenize("x x"), {}, options));
    EXPECT_EQ(memo.stats().gate_fallbacks, 1u);
    EXPECT_EQ(memo.stats().misses, 0u);  // never probed
}

TEST(Memo, ResultsMatchPlainPathAcrossWorkload) {
    auto task = AnswerSetGrammar::parse(kTaskAsg);
    auto anbn = AnswerSetGrammar::parse(kAnBn);
    auto ctx3 = asp::parse_program("maxloa(3).");
    auto ctx5 = asp::parse_program("maxloa(5).");

    GroundingMemo memo;
    MembershipOptions with_memo;
    with_memo.memo = &memo;

    struct Case {
        const AnswerSetGrammar* grammar;
        const asp::Program* context;
        const char* text;
    };
    asp::Program empty;
    std::vector<Case> cases = {
        {&task, &ctx3, "do patrol"}, {&task, &ctx3, "do strike"}, {&task, &ctx5, "do strike"},
        {&task, &ctx3, "do fly"},    {&anbn, &empty, ""},         {&anbn, &empty, "a b"},
        {&anbn, &empty, "a a b b"},  {&anbn, &empty, "a a b"},    {&anbn, &empty, "b a"},
    };
    // Two passes: pass 0 populates the memo (misses), pass 1 serves from
    // it (fragment + verdict hits). Both must agree with the plain path.
    for (int pass = 0; pass < 2; ++pass) {
        for (const auto& c : cases) {
            bool plain = in_language(*c.grammar, tokenize(c.text), *c.context);
            bool memoized = in_language(*c.grammar, tokenize(c.text), *c.context, with_memo);
            EXPECT_EQ(memoized, plain) << "pass " << pass << " text '" << c.text << "'";
        }
    }
    MemoStats stats = memo.stats();
    EXPECT_GT(stats.misses, 0u);
    EXPECT_GT(stats.insertions, 0u);
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.sat_hits, 0u);  // pass 1 repeats served by verdict
    EXPECT_EQ(stats.gate_fallbacks, 0u);
}

TEST(Memo, RootProgramMatchesPlainGrounding) {
    // The composed root program must be solver-equivalent to the plain
    // instantiate + ground product for every parse tree.
    auto g = AnswerSetGrammar::parse(kAnBn);
    GroundingMemo memo;
    asp::Program empty_context;  // MemoizedGrounding keeps a reference
    asp::GroundingLimits limits;
    for (const char* text : {"a a a b b b", "a a b", "a b"}) {
        auto trees = cfg::parse_trees(g.grammar(), tokenize(text), {});
        MemoizedGrounding memoized(&memo, g, empty_context, limits);
        ASSERT_TRUE(memoized.usable());
        for (const auto& tree : trees) {
            auto root = memoized.ground_root(tree);
            ASSERT_FALSE(root.verdict.has_value());  // nothing solved yet
            ASSERT_NE(root.program, nullptr);
            asp::SolveResult via_memo = asp::solve(*root.program, {.max_models = 1});
            asp::SolveResult plain = solve_tree(g, tree, {}, {});
            EXPECT_EQ(via_memo.satisfiable(), plain.satisfiable()) << text;
        }
    }
}

TEST(Memo, SecondIdenticalQueryServesVerdictWithoutSolving) {
    auto g = AnswerSetGrammar::parse(kTaskAsg);
    auto ctx = asp::parse_program("maxloa(3).");
    GroundingMemo memo;
    MembershipOptions options;
    options.memo = &memo;

    ASSERT_TRUE(in_language(g, tokenize("do patrol"), ctx, options));
    std::uint64_t sat_hits_before = memo.stats().sat_hits;
    ASSERT_TRUE(in_language(g, tokenize("do patrol"), ctx, options));
    EXPECT_GT(memo.stats().sat_hits, sat_hits_before);
}

TEST(Memo, DistinctContextsDoNotCollide) {
    // Same grammar, same string, different contexts — opposite answers.
    // A memo that ignored the context fingerprint would serve the first
    // context's verdict for the second.
    auto g = AnswerSetGrammar::parse(kTaskAsg);
    auto ctx3 = asp::parse_program("maxloa(3).");
    auto ctx5 = asp::parse_program("maxloa(5).");
    GroundingMemo memo;
    MembershipOptions options;
    options.memo = &memo;
    for (int round = 0; round < 2; ++round) {
        EXPECT_FALSE(in_language(g, tokenize("do strike"), ctx3, options));
        EXPECT_TRUE(in_language(g, tokenize("do strike"), ctx5, options));
    }
}

TEST(Memo, EpochBumpInvalidatesLazily) {
    auto g = AnswerSetGrammar::parse(kTaskAsg);
    auto ctx = asp::parse_program("maxloa(3).");
    GroundingMemo memo;
    MembershipOptions options;
    options.memo = &memo;

    ASSERT_TRUE(in_language(g, tokenize("do patrol"), ctx, options));
    std::uint64_t entries_before = memo.stats().entries;
    ASSERT_GT(entries_before, 0u);

    memo.set_epoch(memo.epoch() + 1);  // model adoption
    // Entries are still resident (lazy invalidation)...
    EXPECT_EQ(memo.stats().entries, entries_before);
    // ...but the next probe under the new epoch erases and re-grounds.
    ASSERT_TRUE(in_language(g, tokenize("do patrol"), ctx, options));
    MemoStats stats = memo.stats();
    EXPECT_GT(stats.invalidations, 0u);
}

TEST(Memo, TinyBudgetEvictsButStaysCorrect) {
    auto g = AnswerSetGrammar::parse(kAnBn);
    GroundingMemo memo({.capacity_bytes = 512, .shards = 1});
    MembershipOptions options;
    options.memo = &memo;
    for (int round = 0; round < 2; ++round) {
        EXPECT_TRUE(in_language(g, tokenize("a a a b b b"), {}, options));
        EXPECT_FALSE(in_language(g, tokenize("a a a b b"), {}, options));
        EXPECT_TRUE(in_language(g, tokenize("a a b b"), {}, options));
    }
    MemoStats stats = memo.stats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LE(stats.bytes, 512u * 1u);  // per-shard budget holds
}

TEST(Memo, RootMissRetainsOnlyItsVerdict) {
    // Distinct roots over one shared child: once the child's fragment is
    // memoized, every new root is a miss whose composed program goes to
    // the solver and is dropped; the memo keeps only the root's verdict.
    constexpr int kRoots = 16;
    std::string text;
    for (int i = 0; i <= kRoots; ++i) {
        text += "request -> \"w" + std::to_string(i) +
                "\" task { :- requires(L)@2, maxloa(M), L > M. }\n";
    }
    text += "task -> \"patrol\" { requires(2). }\n";
    auto g = AnswerSetGrammar::parse(text);
    auto ctx = asp::parse_program("maxloa(3).");
    GroundingMemo memo;
    MembershipOptions options;
    options.memo = &memo;
    ASSERT_TRUE(in_language(g, tokenize("w0 patrol"), ctx, options));  // memoizes the child

    // A verdict-only entry's charge (its shape plus the entry overhead),
    // measured on an empty memo with a key of the roots' shape.
    GroundingMemo reference;
    GroundingMemo::Key shaped;
    cfg::subtree_shape(cfg::parse_trees(g.grammar(), tokenize("w1 patrol")).front(), shaped.shape);
    reference.attach_verdict(shaped, true);
    const std::uint64_t verdict_entry = reference.stats().bytes;
    ASSERT_GT(verdict_entry, 0u);

    MemoStats before = memo.stats();
    for (int i = 1; i <= kRoots; ++i) {
        ASSERT_TRUE(in_language(g, tokenize("w" + std::to_string(i) + " patrol"), ctx, options));
    }
    MemoStats after = memo.stats();
    EXPECT_EQ(after.misses - before.misses, std::uint64_t{kRoots});  // roots only
    EXPECT_EQ(after.entries - before.entries, std::uint64_t{kRoots});
    EXPECT_LE(after.bytes - before.bytes, kRoots * verdict_entry);
}

TEST(Memo, RootOfOneQueryIsTheNextQuerysChild) {
    // s -> "x" s | "x": the root of "x x" is the child subtree of "x x x".
    // A root's verdict-only entry is a fragment miss for the next query,
    // and the fragment then stored under that key keeps the verdict.
    auto g = AnswerSetGrammar::parse(R"(
        s -> "x" s { n(N) :- n(M)@2, N = M + 1. :- n(N), N > 3. }
        s -> "x" { n(1). }
    )");
    GroundingMemo memo;
    MembershipOptions options;
    options.memo = &memo;
    std::vector<std::string> texts;
    for (std::string t = "x"; texts.size() < 5; t += " x") texts.push_back(t);
    for (int pass = 0; pass < 2; ++pass) {
        std::uint64_t sat_hits = memo.stats().sat_hits;
        for (const auto& t : texts) {
            EXPECT_EQ(in_language(g, tokenize(t), {}, options), in_language(g, tokenize(t), {}))
                << "pass " << pass << " '" << t << "'";
        }
        // Pass 0 solves every root; pass 1 answers each from its verdict.
        EXPECT_EQ(memo.stats().sat_hits - sat_hits, pass == 0 ? 0u : texts.size());
    }
}

// --- randomized memo-vs-plain differential ---

TEST(Memo, RandomGrammarsAgreeWithPlainMembership) {
    // Every case is decided without a memo, with a fresh (cold) memo, with
    // one memo shared across the grammar's cases on a first and a second
    // (warm) pass, and with a 512-byte memo that evicts constantly.
    util::Rng rng(15);
    std::size_t gated = 0, accepted = 0, rejected = 0;
    for (int grammar_index = 0; grammar_index < 120; ++grammar_index) {
        std::string text;
        std::vector<Production> productions = random_grammar(rng, text);
        auto g = AnswerSetGrammar::parse(text);
        std::vector<asp::Program> contexts = {asp::parse_program(random_context(rng)),
                                              asp::parse_program(random_context(rng))};
        std::vector<std::string> strings;
        for (int i = 0; i < 6; ++i) {
            std::string s;
            if (i % 2 == 1 || !derive(rng, productions, 0, 0, s)) s = random_string(rng);
            strings.push_back(s);
        }
        GroundingMemo shared;
        GroundingMemo tiny({.capacity_bytes = 512, .shards = 1});
        for (int pass = 0; pass < 2; ++pass) {
            for (std::size_t c = 0; c < contexts.size(); ++c) {
                for (const auto& s : strings) {
                    MembershipResult plain = check_membership(g, tokenize(s), contexts[c]);
                    (plain.in_language ? accepted : rejected) += 1;
                    GroundingMemo cold;
                    for (GroundingMemo* memo : {&cold, &shared, &tiny}) {
                        MembershipOptions options;
                        options.memo = memo;
                        MembershipResult via =
                            check_membership(g, tokenize(s), contexts[c], options);
                        EXPECT_EQ(via.in_language, plain.in_language)
                            << "grammar " << grammar_index << " pass " << pass << " context " << c
                            << " '" << s << "'\n" << text;
                        EXPECT_EQ(via.resource_limited, plain.resource_limited)
                            << "grammar " << grammar_index << " '" << s << "'";
                    }
                }
            }
        }
        if (shared.stats().gate_fallbacks > 0) ++gated;
    }
    // The generator reaches every path it aims at.
    EXPECT_GT(gated, 0u);
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
}

TEST(Memo, ClearEmptiesTheTable) {
    auto g = AnswerSetGrammar::parse(kTaskAsg);
    auto ctx = asp::parse_program("maxloa(3).");
    GroundingMemo memo;
    MembershipOptions options;
    options.memo = &memo;
    ASSERT_TRUE(in_language(g, tokenize("do patrol"), ctx, options));
    ASSERT_GT(memo.stats().entries, 0u);
    memo.clear();
    EXPECT_EQ(memo.stats().entries, 0u);
    EXPECT_EQ(memo.stats().bytes, 0u);
    // Still serves correct answers afterwards.
    EXPECT_TRUE(in_language(g, tokenize("do patrol"), ctx, options));
}

// Concurrency hammer for the TSan job: worker threads share one memo
// across overlapping workloads while another thread bumps the epoch —
// the DecisionService shape (workers decide, update_model bumps).
TEST(Memo, ConcurrentQueriesWithEpochBumpsStayCorrect) {
    auto task = AnswerSetGrammar::parse(kTaskAsg);
    auto anbn = AnswerSetGrammar::parse(kAnBn);
    auto ctx3 = asp::parse_program("maxloa(3).");
    auto ctx5 = asp::parse_program("maxloa(5).");
    GroundingMemo memo({.capacity_bytes = 64 * 1024, .shards = 4});

    constexpr int kWorkers = 4;
    constexpr int kRounds = 40;
    std::atomic<int> wrong{0};
    std::vector<std::thread> threads;
    threads.reserve(kWorkers + 1);
    for (int w = 0; w < kWorkers; ++w) {
        threads.emplace_back([&, w] {
            MembershipOptions options;
            options.memo = &memo;
            for (int i = 0; i < kRounds; ++i) {
                if (in_language(task, tokenize("do strike"), ctx3, options)) ++wrong;
                if (!in_language(task, tokenize("do strike"), ctx5, options)) ++wrong;
                if (!in_language(task, tokenize("do patrol"), ctx3, options)) ++wrong;
                const char* ab = (w + i) % 2 == 0 ? "a a b b" : "a b";
                if (!in_language(anbn, tokenize(ab), {}, options)) ++wrong;
                if (in_language(anbn, tokenize("a b b"), {}, options)) ++wrong;
            }
        });
    }
    std::atomic<bool> stop{false};
    threads.emplace_back([&] {
        std::uint64_t epoch = memo.epoch();
        while (!stop.load(std::memory_order_acquire)) {
            memo.set_epoch(++epoch);
            std::this_thread::yield();
        }
    });
    for (int w = 0; w < kWorkers; ++w) threads[static_cast<std::size_t>(w)].join();
    stop.store(true, std::memory_order_release);
    threads.back().join();
    EXPECT_EQ(wrong.load(), 0);
}

}  // namespace
}  // namespace agenp::asg
